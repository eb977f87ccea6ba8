"""Integer lattices, discriminant forms, and gluing.

A lattice is a free Z-module with an integer-valued symmetric bilinear
form, recorded by its Gram matrix.  This module computes:

  * discriminant groups L*/L with their generators, read off the row
    transform of one elimination of the Gram matrix modulo |det|, and
    the induced quadratic form q(v) = v^2 mod 2Z and bilinear form
    b(v, w) = v.w mod Z on them (`disc_group`);
  * determinants and signatures by fraction-free elimination (`signature`);
  * even overlattices glued from two lattices along an anti-isometry
    of the prime-to-p parts of their discriminant groups, every
    condition checked on the given glue vectors (`glue`);
  * existence of integral unimodular overlattices of finite index, from
    the Jordan splitting of each p-part of L*/L, with no walk over its
    elements (`unimodular_overlattice_exists`);
  * negative-definite root lattices of types A, D, E (`dynkin_gram`).

An overlattice, glued or a witness, is returned on the Hermite normal
form of its basis, computed modulo the scale it contains (`_span_basis`),
so its Gram is a function of the overlattice, not of the vectors given.

All arithmetic is over Z.  A single pairing is one kernel x^T M y
(`_pair`); a Gram R M R^T of many rows takes each row to x^T M once
(`_quotient_gram`).  A generator of L*/L is an integer column over its
order, a class an integer vector over the exponent e of the group, and
a pairing on L*/L the integer e v.w.  Fractions appear only at the
edges: the "a/b" entries of a glue spec (`_glue_entry`) and `glue`'s
rational vectors come in, checked by `in_dual` and brought over their
least common denominator (`_integral`); `dot` and `q_value` hand them out.
"""

import itertools
import re
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from operator import attrgetter, mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .chartring import parse_symbol
from .ffpoly import MAX_PRIME, FrozenRecord, int_literal, is_supported_prime, json_echo, json_field

# Lattice input above this rank is refused before any row is built.  The
# lattices of K3 surfaces have rank <= 22; the exact arithmetic here is
# cubic or worse in the rank (on a 2-vCPU host, `disc_group` of a dense
# Gram with entries up to 50 takes about 0.3 s at rank 64, 6 s at 128).
_RANK_GUARD = 128


# ---------------------------------------------------------------------------
# integer matrix utilities


def _pair(m: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """x^T m y over Z, skipping zero entries of x and y."""
    acc = 0
    for a, row in zip(x, m):
        if a:
            for b, c in zip(y, row):
                if b:
                    acc += a * b * c
    return acc


def _integral(vectors: Sequence[Sequence[Fraction]], n: int) -> Tuple[int, List[List[int]]]:
    """(d, rows): the least common denominator d of rational n-vectors, and d times each."""
    for vec in vectors:
        if len(vec) != n:
            raise ValueError(f"vector has length {len(vec)}, but the lattice has rank {n}")
    d = lcm(*(x.denominator for vec in vectors for x in vec))
    return d, [[x.numerator * (d // x.denominator) for x in vec] for vec in vectors]


def _quotient_gram(
    m: Sequence[Sequence[int]], rows: Sequence[Sequence[int]], num: int, den: int
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """num R m R^T / den for integer rows R, or None when it is not integral.

    Each row x is taken once to x^T m, the sum of a * m[k] over its
    nonzero entries a = x[k] (m is symmetric); each unordered pair of rows
    is then one dot product over the other row's nonzero entries, mirrored.
    """
    supports = [[(k, a) for k, a in enumerate(x) if a] for x in rows]
    out = [[0] * len(rows) for _ in rows]
    for i, support in enumerate(supports):
        image = [0] * len(m)
        for k, a in support:
            image = [u + a * c for u, c in zip(image, m[k])]
        for j in range(i + 1):
            val, rem = divmod(num * sum(image[k] * b for k, b in supports[j]), den)
            if rem:
                return None
            out[i][j] = out[j][i] = val
    return tuple(map(tuple, out))


def _inertia(rows: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """(det, positive, negative index) of a symmetric integer matrix.

    Bareiss elimination (Bareiss 1968) with symmetric pivoting: a zero
    pivot is swapped, row and column, for a nonzero trailing diagonal
    entry, or else row and column j are folded into i for an m_ij != 0,
    giving 2 m_ij.  Both are unimodular congruences, so the pivots are the
    leading principal minors D_1..D_n of a matrix congruent to M: det is
    D_n, and the negative index counts sign changes in 1, D_1, ..., D_n.
    A zero trailing block means det 0 and the indices of the leading block.
    """
    m = [list(row) for row in rows]
    n = len(m)
    prev = 1
    pos = neg = 0
    for k in range(n):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][i]), None)
            if piv is None:
                fold = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]), None)
                if fold is None:
                    return 0, pos, neg
                piv, j = fold
                for c in range(k, n):
                    m[piv][c] += m[j][c]
                for r in range(k, n):
                    m[r][piv] += m[r][j]
            m[k], m[piv] = m[piv], m[k]
            for row in m[k:]:
                row[k], row[piv] = row[piv], row[k]
        top = m[k]
        d = top[k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * d - a * top[j]) // prev
        prev = d
    return prev, pos, neg


def _step(a: int, b: int) -> Tuple[int, int, int, int]:
    """(s, t, x, y) of determinant 1 taking (a, b) to (s a + t b, x a + y b) = (gcd(a, b), 0).

    A plain subtraction when a divides b; else Bezout, with s the inverse
    of a/g mod b/g.  a and b are not negative, and b is not 0.
    """
    if a and not b % a:
        return 1, 0, -(b // a), 1
    g = gcd(a, b)
    a, b = a // g, b // g
    s = pow(a, -1, b)
    return s, (1 - s * a) // b, -b, a


# ---------------------------------------------------------------------------
# lattices


class GramLattice(FrozenRecord):
    """A non-degenerate integer lattice given by its Gram matrix, equal to another on it."""

    __slots__ = ("gram", "rank", "det", "_signature")
    _key = attrgetter("gram")

    def __init__(self, gram: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in gram)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise ValueError(f"Gram entry [{i}][{j}] must be an integer, got {x!r}")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        d, pos, neg = _inertia(rows)
        if d == 0:
            raise ValueError("degenerate lattice (zero determinant)")
        self._fill(rows, n, d, (pos, neg))

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def dot(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """x.y for rational vectors in lattice-basis coordinates."""
        d, (xs, ys) = _integral((x, y), self.rank)
        return Fraction(_pair(self.gram, xs, ys), d * d)

    def in_dual(self, vec: Sequence[Fraction]) -> bool:
        """Whether a rational vector pairs integrally with the lattice."""
        d, (xs,) = _integral((vec,), self.rank)
        return all(sum(map(mul, row, xs)) % d == 0 for row in self.gram)

    def direct_sum(self, other: "GramLattice") -> "GramLattice":
        """The orthogonal sum, not checked again: det and signature are the product and sum."""
        n, m = self.rank, other.rank
        rows = tuple(row + (0,) * m for row in self.gram)
        rows += tuple((0,) * n + row for row in other.gram)
        sig = tuple(map(sum, zip(self._signature, other._signature)))
        out = object.__new__(GramLattice)
        out._fill(rows, n + m, self.det * other.det, sig)
        return out

    def __str__(self):
        body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.gram)
        return f"[{body}]"

    def __repr__(self):
        return f"GramLattice({self})"


def _check_prime(p: int, what: str) -> None:
    if not is_supported_prime(p):
        raise ValueError(f"{what} needs a prime p, got {json_echo(p)}, not a prime below 2^16")


def _check_rank(n: int, what: str) -> None:
    if n > _RANK_GUARD:
        raise ValueError(f"{what} has rank {n}, over the rank guard {_RANK_GUARD}")


def diagonal_gram(entries: Sequence[int]) -> GramLattice:
    n = len(entries)
    _check_rank(n, "diagonal lattice")
    return GramLattice(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def dynkin_gram(symbol) -> GramLattice:
    """Negative-definite root lattice of type A_N, D_N, or E_N.

    Convention: e_i^2 = -2 and e_i . e_j = 1 for nodes joined by an
    edge.  A_N is a chain; D_N is a chain of N-2 nodes with two extra
    nodes on its last node; E_N is a chain of N-1 nodes with one extra
    node on its third node.
    """
    family, N = parse_symbol(symbol) if isinstance(symbol, str) else tuple(symbol)
    _check_rank(N, f"root lattice {family}{N}")
    edges = []
    if family == "A":
        edges = [(i, i + 1) for i in range(N - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(N - 3)]
        edges += [(N - 3, N - 2), (N - 3, N - 1)]
    else:
        edges = [(i, i + 1) for i in range(N - 2)]
        edges.append((2, N - 1))
    rows = [[-2 if i == j else 0 for j in range(N)] for i in range(N)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return GramLattice(rows)


def signature(L: GramLattice) -> Tuple[int, int]:
    """(positive, negative) inertia indices, from the elimination that found det."""
    return L._signature


# ---------------------------------------------------------------------------
# discriminant groups


class DiscForm(FrozenRecord):
    """The finite group L*/L with its torsion form data.

    The group is the direct product of the cyclic factors Z/orders[i],
    all of order > 1; cols[i] / orders[i], for an integer vector cols[i]
    in the basis of L, represents a generator of factor i.  Elements of
    the group are integer tuples, one residue per listed order.
    disc_group lists the invariant factors (each dividing the next); a
    p-part or a product of two groups need not.
    """

    __slots__ = ("lattice", "orders", "cols", "__dict__")
    _key = attrgetter(*__slots__[:3])

    def __init__(self, lattice: GramLattice, orders: Tuple[int, ...], cols: Tuple[Tuple[int, ...], ...]):
        self._fill(lattice, orders, cols)

    def vector(self, elem: Sequence[int]) -> Tuple[int, ...]:
        """e times a coset representative in L tensor Q, e the exponent (lattice basis coords)."""
        e = self._exponent
        vec = [0] * self.lattice.rank
        for a, d, col in zip(elem, self.orders, self.cols):
            if a:
                a *= e // d
                vec = [v + a * c for v, c in zip(vec, col)]
        return tuple(vec)

    @cached_property
    def _exponent(self) -> int:
        return lcm(*self.orders)

    @cached_property
    def _gen_pairings(self) -> Tuple[Tuple[int, ...], ...]:
        """e * (g_i . g_j) for e = lcm(orders): integers, as e * g_i is in L and g_j in L*."""
        rows = [[self._exponent // d * c for c in col] for d, col in zip(self.orders, self.cols)]
        table = _quotient_gram(self.lattice.gram, rows, 1, self._exponent)
        if table is None:
            raise ValueError("cols are not classes of the listed orders in L*/L")
        return table

    def _raw_dot(self, x: Sequence[int], y: Sequence[int]) -> int:
        """e * (x . y) for the exponent e, from the integer pairing table."""
        return _pair(self._gen_pairings, x, y)

    def q_value(self, elem: Sequence[int]) -> Fraction:
        """Quadratic value v^2 in Q/2Z, represented in [0, 2).

        Well-defined only when the lattice is even.
        """
        if not self.lattice.is_even:
            raise ValueError("quadratic discriminant form needs an even lattice")
        e = self._exponent
        return Fraction(self._raw_dot(elem, elem) % (2 * e), e)

    def p_part(self, p: int) -> "DiscForm":
        """The p-primary part, read off the same generators.

        Factor Z/d of the group contributes Z/p^v (v = v_p(d)), generated
        by (d / p^v) times its generator, which is its column over p^v, as
        (d / p^v) cols[i] / d = cols[i] / p^v; factors prime to p drop
        out.  p must be a prime below 2^16, as every part the overlattice
        search admits is.
        """
        _check_prime(p, "p-part")
        orders, cols = [], []
        for d, col in zip(self.orders, self.cols):
            pv = 1
            while d % (pv * p) == 0:
                pv *= p
            if pv > 1:
                orders.append(pv)
                cols.append(col)
        return DiscForm(self.lattice, tuple(orders), tuple(cols))


def disc_group(L: GramLattice) -> DiscForm:
    """Discriminant group L*/L with its generators, from one elimination of G mod D = |det|.

    D kills L*/L, so G Z^n holds D Z^n, and only the span of the columns
    of G mod D counts: column steps, and a column reduced mod D, are free
    and not recorded.  Row steps U are kept mod D.  A step combines two
    entries by one Bezout 2x2 step, or by a subtraction when the pivot
    divides the entry (`_step`).  At pivot k, row steps clear column k
    below it; it is then m_kk e_k, which with D e_k spans d_k e_k, for
    d_k = gcd(m_kk, D).  An entry of row k that d_k does not divide takes
    a column step, and the row steps go again; d_k divides the rest, and
    their column steps would change row k alone, so are not made.  Then
    U G Z^n = diag(d) Z^n, for a unimodular lift of U.  Where d_i does not
    divide d_j, i < j, the divisibility fix-up adds row j into row i; a
    column step takes (d_i, d_j) in row i to (g, 0), g their gcd, and
    leaves t d_j in row j, cleared by one row step of -(t d_j / g) row i:
    the pair becomes (g, d_i d_j / g), so each d_k divides the next.  As G
    is symmetric, G^{-1} Z^n = U^T diag(d)^{-1} Z^n: row k of U over d_k,
    reduced mod d_k, generates the Z/d_k factor (Cohen, GTM 138, Sec. 2.4).
    """
    n, D = L.rank, abs(L.det)
    # [G | I] mod D: U is the right half of each row
    m = [[x % D for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(L.gram)]
    ds = []
    for k in range(n):
        while True:
            for i in range(k + 1, n):
                if m[i][k]:
                    s, t, x, y = _step(m[k][k], m[i][k])
                    top, row = m[k], m[i]
                    if t:  # else the step subtracts, and row k stays
                        m[k] = [(s * a + t * b) % D for a, b in zip(top, row)]
                    m[i] = [(x * a + y * b) % D for a, b in zip(top, row)]
            d = m[k][k] = gcd(m[k][k], D)
            j = next((j for j in range(k + 1, n) if m[k][j] % d), None)
            if j is None:
                break
            s, t, x, y = _step(d, m[k][j])
            for row in m[k:]:
                row[k], row[j] = (s * row[k] + t * row[j]) % D, (x * row[k] + y * row[j]) % D
        ds.append(d)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = ds[i], ds[j]
            if b % a:
                g = gcd(a, b)
                c = _step(a, b)[1] * (b // g)
                m[i] = [(p + q) % D for p, q in zip(m[i], m[j])]
                m[j] = [(q - c * p) % D for p, q in zip(m[i], m[j])]
                ds[i], ds[j] = g, a * b // g
    keep = [k for k in range(n) if ds[k] > 1]
    return DiscForm(L, tuple(ds[k] for k in keep), tuple(tuple(a % ds[k] for a in m[k][n:]) for k in keep))


# ---------------------------------------------------------------------------
# overlattices and gluing


def _span_basis(n: int, scale: int, rows: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """Z^n plus the vectors rows / scale: (scale, the Hermite normal form of scale times it).

    The lattice holds scale Z^n, so the work is modulo scale (Cohen, GTM
    138, Sec. 2.4).  From scale I_n, each row, reduced mod scale, goes in
    column by column: Euclid between the basis row and it keeps the gcd
    row, entries right of the pivot go mod scale (the rows below span
    scale e_j for those j), and the row left, 0 there, goes on.  Each
    entry above a pivot is then reduced into [0, pivot), left to right.
    Every pivot divides scale, and the basis is a function of the lattice.
    """
    basis = [[scale * (i == j) for j in range(n)] for i in range(n)]
    for row in rows:
        row = [a % scale for a in row]
        for i, top in enumerate(basis):
            while row[i]:
                q = top[i] // row[i]
                top, row = row, [(a - q * b) % scale for a, b in zip(top, row)]
            basis[i] = top
    for i, piv in enumerate(basis):
        for k in range(i):
            q = basis[k][i] // piv[i]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], piv)]
    return scale, basis


def _index(span: Tuple[int, List[List[int]]]) -> int:
    """The index [Z^n + span(vectors) : Z^n] of a _span_basis, as scale^n over the pivots."""
    scale, rows = span
    return scale ** len(rows) // prod(row[i] for i, row in enumerate(rows))


def _overlattice(ambient: GramLattice, span: Tuple[int, List[List[int]]]) -> GramLattice:
    """The lattice spanned by ambient and the vectors of a span, on its Hermite normal form.

    span is the _span_basis of the vectors, in ambient-basis coordinates,
    which holds scale Z^n and so has rank rows; it must be integral.  Its
    Gram is B G B^T / scale^2 for the integer rows B of the span, computed
    over Z.
    """
    scale, basis = span
    gram = _quotient_gram(ambient.gram, basis, 1, scale * scale)
    if gram is None:
        raise RuntimeError("overlattice is not integral; glue or isotropy bug")
    return GramLattice(gram)


def glue(
    L: GramLattice,
    T: GramLattice,
    p: int,
    pairs: Sequence[Tuple[Sequence[Fraction], Sequence[Fraction]]],
) -> GramLattice:
    """Even overlattice of L + T glued along dual vector pairs.

    Each pair (l, t) of dual vectors adds the glue vector v = l + t, so
    the glued lattice is the overlattice of L + T given by the subgroup
    H of D_L x D_T the classes of the v_i generate (Nikulin 1979).  H
    must be the graph of an anti-isometry between the full prime-to-p
    parts of the two discriminant groups.  Every condition is read off
    the generators:

      * the order of the class of v is the lcm of its denominators, and
        must be prime to p;
      * q vanishes on H iff v_i.v_i is in 2Z and v_i.v_j is in Z, as
        q(x + y) = q(x) + q(y) + 2 b(x, y);
      * |H|, |left| and |right| (the projections of H to D_L and D_T)
        are the indices of the lattices the v_i, l_i and t_i span over
        L + T, L and T; H is the graph of a bijection iff all three
        agree;
      * a projection lies in the prime-to-p part, so it covers that
        part iff its order is |det| with its factors p removed, as
        |L*/L| = |det L|.

    p must be a prime below 2^16.  Returns the glued lattice on its
    Hermite normal form, the same for every set of pairs that spans H.
    """
    _check_prime(p, "glue")
    if not (L.is_even and T.is_even):
        raise ValueError("gluing is defined for even lattices")
    ambient = L.direct_sum(T)
    glue_vectors = []
    for vec_l, vec_t in pairs:
        vl = [Fraction(x) for x in vec_l]
        vt = [Fraction(x) for x in vec_t]
        if not L.in_dual(vl) or not T.in_dual(vt):
            raise ValueError("glue vectors must pair integrally with the lattices")
        glue_vectors.append(vl + vt)
    # s is the lcm of the orders of the glue classes
    s, rows = _integral(glue_vectors, ambient.rank)
    if s % p == 0:
        raise ValueError("glued classes must have order coprime to p")
    pairings = _quotient_gram(ambient.gram, rows, 1, s * s)
    if pairings is None or any(pairings[i][i] % 2 for i in range(len(rows))):
        raise ValueError("glue map is not an anti-isometry of discriminant forms")
    span = _span_basis(ambient.rank, s, rows)
    index = _index(span)
    left = _index(_span_basis(L.rank, s, [row[:L.rank] for row in rows]))
    right = _index(_span_basis(T.rank, s, [row[L.rank:] for row in rows]))
    if left != index or right != index:
        raise ValueError("glue classes do not form the graph of a bijection")
    for lat, order, name in ((L, left, "L*/L"), (T, right, "T*/T")):
        prime_to_p = abs(lat.det)
        while prime_to_p % p == 0:
            prime_to_p //= p
        if order != prime_to_p:
            raise ValueError(f"glue map does not cover the prime-to-p part of {name}")

    glued = _overlattice(ambient, span)
    if abs(glued.det) * index * index != abs(L.det) * abs(T.det):
        raise RuntimeError("determinant bookkeeping failed in glue")
    return glued


# ---------------------------------------------------------------------------
# unimodular overlattices


def _jordan_split(part: DiscForm, p: int) -> List[Tuple[int, int, List[List[int]]]]:
    """An orthogonal splitting of a p-part into blocks of one generator, or two at p = 2.

    Returns (k, u, fs) for each block: each f in fs, in the part's
    generator coordinates, has order p^k; u = p^k b(f, f) mod p for the
    first f; distinct blocks are orthogonal.  The work is on the pairing
    table e b(g_i, g_j) mod e, for the exponent e = p^K.  Each step
    pivots on an entry of least p-adic valuation v.  A diagonal one gives
    the block <g_i>, u a unit.  Else, for odd p, g_i += g_j for an
    off-diagonal one puts it on the diagonal, as b(g_i + g_j, g_i + g_j)
    = b(g_i, g_i) + 2 b(g_i, g_j) + b(g_j, g_j); at p = 2 the block is
    <g_i, g_j>, with table [[a, b], [b, c]] over 2^v, a and c even and b
    odd, so u = 0 and the determinant is odd.  The block pairs into
    p^v / e with every element, so, the form being nondegenerate, its
    generators have order e / p^v.  Each other generator is projected
    off it through the inverse of its table over p^v, mod e / p^v, and
    those left span its orthogonal complement.  Once all their pairings
    are 0 they are 0 in the group, and the split is done.
    """
    e = part._exponent
    n = len(part.orders)
    gram = [[x % e for x in row] for row in part._gen_pairings]
    vecs = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, c):
        # g_i += c g_j, on its coordinates and on row and column i of the table
        vecs[i] = [(a + c * b) % e for a, b in zip(vecs[i], vecs[j])]
        gram[i] = [(a + c * b) % e for a, b in zip(gram[i], gram[j])]
        for row in gram:
            row[i] = (row[i] + c * row[j]) % e

    live = list(range(n))
    out = []
    pv = 1  # p^v divides every live entry; projecting a block out keeps that
    while live and pv < e:
        # an entry has valuation v exactly iff it is not 0 mod p^(v+1)
        i = next((i for i in live if gram[i][i] % (pv * p)), None)
        block = [i]
        if i is None:
            pair = next(((i, j) for i in live for j in live if gram[i][j] % (pv * p)), None)
            if pair is None:
                pv *= p
                continue
            if p > 2:
                add(*pair, 1)
            block = list(pair) if p == 2 else [pair[0]]
        live = [i for i in live if i not in block]
        order = e // pv
        # the block's table over p^v, inverted as adj / det mod e / p^v; a block
        # of one, [[a]], is read as [[a, 0], [0, 1]], of which zip keeps row 0
        table = [[gram[i][j] // pv for j in block] for i in block]
        (a, b), (_, c) = table if len(block) == 2 else ((table[0][0], 0), (0, 1))
        adj, inv = [[c, -b], [-b, a]], pow(a * c - b * b, -1, order)
        for j in {j for i in block for j in live if gram[i][j]}:
            pairings = [gram[j][i] // pv for i in block]
            for i, row in zip(block, adj):
                x = sum(map(mul, row, pairings)) * inv % order
                if x:
                    add(j, i, -x)
        k = 0
        while order > 1:
            order //= p
            k += 1
        out.append((k, table[0][0] % p, [vecs[i] for i in block]))
    return out


def _is_square(a: int, p: int) -> bool:
    """Whether a is a square mod an odd prime p, 0 included (Euler's criterion)."""
    return pow(a, (p - 1) // 2, p) != p - 1


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a square a mod an odd prime p (Tonelli-Shanks)."""
    a %= p
    if not a:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if not _is_square(z, p))
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # r^2 = t a, and t has order 2^i < 2^s: multiply the order of t down to 1
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _odd_lagrangian(part: DiscForm, p: int) -> Optional[List[List[int]]]:
    """Generators of an H with b(H, H) = 0 and |H|^2 = |D| in an odd p-part, or None.

    From the Jordan splitting (k_i, u_i, f_i) (`_jordan_split`): the
    summand <f> with b(f, f) = u / p^k holds p^ceil(k/2) f, isotropic of
    order p^floor(k/2).  For odd k it leaves x = p^((k-1)/2) f, of order
    p, with b(x, x) = u / p, and the x of distinct summands are
    orthogonal.  So H exists iff the residual form diag(u_i) over F_p,
    one u_i for each odd k_i, is metabolic: iff its class in the Witt
    group W(F_p) is 0 (Nikulin 1979, Sec. 1), which is to say its
    dimension R is even and (-1)^(R/2) prod u_i is a square mod p.  Then
    H is spanned by the p^ceil(k/2) f and the lifts to D of a maximal
    isotropic subspace of the residual form, R/2 vectors: in all
    p^(sum k_i / 2) elements.  For odd p, q is isotropic wherever b is:
    an x with x.x in Z and odd order N has N^2 x.x in 2Z, as L is even,
    so x.x is in 2Z; even_only changes nothing here.
    """
    e = part._exponent
    gens = []
    residual = []
    for k, u, (f,) in _jordan_split(part, p):
        if k > 1:
            gens.append([p ** ((k + 1) // 2) * a for a in f])
        if k % 2:
            residual.append((u, [p ** (k // 2) * a for a in f]))
    r = len(residual)
    if r % 2 or not _is_square((-1) ** (r // 2) * prod(u for u, _ in residual), p):
        return None

    def combine(*terms):
        return [sum(c * x[t] for c, x in terms) % e for t in range(len(part.orders))]

    # Split a hyperbolic plane off the residual form at each step, keeping
    # the rest diagonal.  Of three entries a, b, c: a s^2 + b t^2 takes
    # every value, so v = s x + t y + z is isotropic for a s^2 + b t^2 = -c,
    # and <v, z> is a hyperbolic plane, as b(v, z) = c.  Its complement
    # in <x, y, z> is spanned by b t x - a s y, of norm -abc; the Witt
    # class, and so the test above, is unchanged.  Two entries a, b with
    # -ab a square leave v = s x + y, s^2 = -b/a.
    while residual:
        if len(residual) == 2:
            (a, x), (b, y) = residual
            gens.append(combine((_sqrt_mod(-b * pow(a, -1, p), p), x), (1, y)))
            break
        (a, x), (b, y), (c, z) = residual[:3]
        binv = pow(b, -1, p)
        s = next(s for s in range(p) if _is_square((-c - a * s * s) * binv, p))
        t = _sqrt_mod((-c - a * s * s) * binv, p)
        gens.append(combine((s, x), (t, y), (1, z)))
        residual = [(-a * b * c % p, combine((b * t, x), (-a * s, y)))] + residual[3:]
    return gens


def _two_lagrangian(part: DiscForm, even_only: bool) -> Optional[List[List[int]]]:
    """Generators of an isotropic H with |H|^2 = |D| in the 2-part, or None.

    Isotropic means b(H, H) = 0 in Q/Z and, with even_only, q(H) = 0 in
    Q/2Z; as q(x + y) = q(x) + q(y) + 2 b(x, y), orthogonal isotropic
    generators span an isotropic H.  In the 2-adic Jordan splitting
    (`_jordan_split`), a block <f> of order 2^k has 2^k b(f, f) and
    2^k q(f) odd; a block <f, g> has 2^k b(f, g) odd, and 2^k b and 2^k q
    even on f and on g.  So H takes the multiples 2^j f, for the least j
    with 2j >= k, or 2j > k for a block of one under even_only, and the
    block leaves the pieces 2^(k-j) f, of order 2^(2j-k) in its
    H^perp / H.  The pieces are taken into an anisotropic kernel A one
    block at a time, by a greedy walk over the small group A + pieces,
    its form read from the Gram of its few generators.  The walk adds x
    to its subgroup H' when x is not in H', is isotropic and is
    orthogonal to the x added before; a rejection only gets stronger as
    H' grows, so H' is maximal.  H' joins H, and A becomes H'^perp / H',
    kept as generators, each with its order modulo H'.  The map onto A
    from the product of their cyclic groups need not be injective, but
    its kernel lies in H, so is isotropic and in the radical, and every
    maximal H' contains it.  At the end H is maximal, as H^perp / H is A.

    All maximal isotropic subgroups of a nondegenerate finite form have
    the same order (H^perp/H is its anisotropic kernel; Nikulin 1979,
    Sec. 1; Miranda-Morrison, Embeddings of integral quadratic forms),
    for q and for b alone, the odd-lattice case at p = 2 included.
    Proof: let H, H' be maximal, and I = H cap H'.  An x in H' with
    b(x, H) = 0 extends H to the isotropic H + <x>, as
    q(h + kx) = q(h) + k^2 q(x) + 2k b(h, x), so x is in H.  Hence the
    map H' -> Hom(H, Q/Z), x -> b(x, -), has kernel I; its image
    vanishes on I, as H' is isotropic, so lies in Hom(H/I, Q/Z), of
    order |H|/|I|.  Thus |H'| <= |H|, and |H| <= |H'| by symmetry.  So
    the H sought exists iff A ends trivial.
    """
    e = part._exponent
    # x is isotropic iff e x.x is 0 mod e (b), or mod 2e (q) with even_only
    self_modulus = 2 * e if even_only else e
    gens, vecs, orders = [], [], []  # H, and A: vecs[i] of order orders[i] (2 or 4) modulo H

    def plus(s, m, x):  # s + m x in the group of the walk
        return tuple((a + m * b) % o for a, b, o in zip(s, x, orders))

    def orthogonal(x, ys):
        return not any(_pair(gram, x, y) % e for y in ys)

    def lift(x):
        return [sum(map(mul, x, col)) for col in zip(*vecs)]

    for k, _u, fs in _jordan_split(part, 2):
        j = (k + 1 + (even_only and len(fs) == 1)) // 2
        gens += [[2**j * a for a in f] for f in fs if j < k]
        if 2 * j == k:
            continue
        vecs += [[2 ** (k - j) * a for a in f] for f in fs]
        orders += [2 ** (2 * j - k)] * len(fs)
        if len(vecs) == 1:
            continue  # one block's lone piece is anisotropic: 2^(2j-k) b or q on it is odd
        gram = [[_pair(part._gen_pairings, x, y) for y in vecs] for x in vecs]
        elems = list(itertools.product(*(range(o) for o in orders)))
        sub, found, rest = {elems[0]}, [], []
        for x in elems:
            if x not in sub and not _pair(gram, x, x) % self_modulus and orthogonal(x, found):
                found.append(x)
                sub = {plus(s, m, x) for s in sub for m in range(max(orders))}
        h = sub
        for x in elems:
            if x not in sub and orthogonal(x, found):
                rest.append((x, 2 if plus(elems[0], 2, x) in h else 4))
                sub = {plus(s, m, x) for s in sub for m in range(max(orders))}
        gens += map(lift, found)
        vecs, orders = [lift(x) for x, _ in rest], [order for _, order in rest]
    return None if vecs else gens


def _searched_parts(m: int) -> List[int]:
    """The primes of m, ascending, each below 2^16, as p-parts are taken for those only.

    Trial division runs to min(isqrt(m), 2^16) on the shrinking
    cofactor, so what it leaves is 1, a prime below 2^16, or refused.
    """
    primes = []
    p = 2
    while p * p <= m and p < MAX_PRIME:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 + (p > 2)
    if m >= MAX_PRIME:
        raise ValueError(
            f"the part for the primes of {m} in the discriminant group is not searched: "
            f"{m} has no prime factor below 2^16"
        )
    if m > 1:
        primes.append(m)
    return primes


def unimodular_overlattice_exists(
    L: GramLattice, even_only: bool = False
) -> Tuple[bool, Optional[GramLattice]]:
    """Whether L has a finite-index unimodular overlattice, with a witness.

    Overlattices of finite index correspond to subgroups H of L*/L
    with b(H, H) = 0 in Q/Z; the overlattice is unimodular iff
    |H|^2 = |disc(L)|.  With even_only=True (requires L even) the
    subgroup must also satisfy q(H) = 0 in Q/2Z, making the
    overlattice even.  The discriminant form is the orthogonal sum of
    its p-parts and q is additive across them (Nikulin 1979), so H
    exists iff every p-part has such a subgroup H_p with |H_p|^2 = |D_p|.
    Each p-part is decided from its Jordan splitting: an odd one by the
    Witt class of its residual form over F_p (`_odd_lagrangian`), the
    2-part by isotropic reduction of its blocks to an anisotropic kernel
    (`_two_lagrangian`).  The witness is spanned by the generators of
    the subgroups found.  Returns (found, witness Gram or None).
    """
    if even_only and not L.is_even:
        raise ValueError("even_only search needs an even lattice")
    disc_order = abs(L.det)
    m = isqrt(disc_order)
    if m * m != disc_order:
        return False, None
    primes = _searched_parts(m)
    if m == 1:
        return True, L
    disc = disc_group(L)
    # the witness vectors, each over the exponent e of L*/L
    e, rows = disc._exponent, []
    for p in primes:
        part = disc.p_part(p)
        gens = _two_lagrangian(part, even_only) if p == 2 else _odd_lagrangian(part, p)
        if gens is None:
            return False, None
        rows += [[e // part._exponent * x for x in part.vector(g)] for g in gens]
    witness = _overlattice(L, _span_basis(L.rank, e, rows))
    if abs(witness.det) != 1:
        raise RuntimeError("witness is not unimodular; search bug")
    return True, witness


# ---------------------------------------------------------------------------
# JSON loading


GLUE_SCHEMA = "rdpk3/glue-spec/1"


def gram_from_json(rows) -> GramLattice:
    """A lattice from outside Gram input, which must be a list of integer lists.

    JSON floats and booleans are refused rather than truncated, and the
    error names the offending entry.
    """
    if not isinstance(rows, list):
        raise ValueError(f"Gram matrix must be a list of rows, got {json_echo(rows)}")
    _check_rank(len(rows), "Gram matrix")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"Gram row {i} must be a list, got {json_echo(row)}")
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(
                    f"Gram entry [{i}][{j}] must be an integer, got {json_echo(x)}"
                )
    return GramLattice(rows)


def lattice_from_json(doc) -> GramLattice:
    """A lattice from a document with a dynkin, diagonal, or gram field."""
    what = "lattice document"
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json_echo(doc)}")
    if "dynkin" in doc:
        return dynkin_gram(json_field(doc, "dynkin", "a string", what))
    if "diagonal" in doc:
        name, L = "diagonal", diagonal_gram(json_field(doc, "diagonal", "a list of integers", what))
    elif "gram" in doc:
        name, L = "gram", gram_from_json(doc["gram"])
    else:
        raise ValueError(f"{what} needs a dynkin, diagonal, or gram field")
    if not L.rank:
        raise ValueError(f"{what} field {name!r} is empty; a lattice needs rank >= 1")
    return L


# an integer, or a/b with b != 0
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _glue_entry(x, where: str) -> Fraction:
    """A glue-vector entry: a JSON integer or an "a/b" string, never a float or bool."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(*(int_literal(part, where) for part in x.split("/")))
    raise ValueError(f'{where} must be an integer or an "a/b" string, got {json_echo(x)}')


def glue_from_json(doc) -> GramLattice:
    """Run a glue computation described by a JSON document."""
    what = "glue spec"
    schema = json_field(doc, "schema", "a string", what)
    if schema != GLUE_SCHEMA:
        raise ValueError(f"expected schema {GLUE_SCHEMA!r}, got {schema!r}")
    L = lattice_from_json(json_field(doc, "left", "an object", what))
    T = lattice_from_json(json_field(doc, "right", "an object", what))
    pairs = []
    for i, pair in enumerate(json_field(doc, "pairs", "a list", what)):
        where = f"{what} pairs[{i}]"
        pairs.append(tuple(
            [
                _glue_entry(x, f"{where} field {key!r} entry {j}")
                for j, x in enumerate(json_field(pair, key, "a list", where))
            ]
            for key in ("left_vector", "right_vector")
        ))
    return glue(L, T, json_field(doc, "p", "an integer", what), pairs)
