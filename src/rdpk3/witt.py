"""Truncated p-typical Witt vector arithmetic.

W_n(A) is A^n as a set, with ring operations given by universal
structure polynomials.  The polynomials are derived here from scratch:
the ghost map

    w_N(t_0, ..., t_N) = sum_{i=0}^{N} p^i * t_i^(p^(N-i))

must be a ring homomorphism, which determines the sum/product/negation
polynomials recursively over Z with an exact division by p^N at level N.
The derivation is done once per (p, n, op) and cached; reducing mod p
gives the tables actually used for arithmetic in characteristic p.

Supported truncations: p = 2 up to n = 4, p in {3, 5} up to n = 2,
p = 7 at n = 1.  These bounds are practical, not mathematical; the
derivation works for any (p, n) but table size grows quickly.

Operators on W_n(A) for any commutative F_p-algebra A whose elements
implement +, -, *, ** and ring_zero/ring_one:

    V (verschiebung)  prepends a zero component, W_n -> W_{n+1}
    R (restriction)   drops the last component, W_n -> W_{n-1}
    F (frobenius)     raises components to the p-th power; on W_n of an
                      F_p-algebra this is the Witt Frobenius

Over A = F_p itself, W_n(F_p) = Z/p^n has p^n <= 25 elements in every
supported truncation.  Its components are FpScalar residue labels, which
have no arithmetic: a vector of them carries the Cayley table of its
(p, n) and its index sum v_k p^k.  The tables are filled once per (p, n)
by the straight-line programs on ints, and their elements are the vectors
every operation returns: add, mul and neg of two vectors of one table
are one list index each, and [a], V, R and F index the table of the
result's length.
"""

from __future__ import annotations

import functools
import operator

from .ffpoly import FpScalar, MultiPoly, _cut, is_prime

SUPPORTED_RANGES = {2: 4, 3: 2, 5: 2, 7: 1}


def check_supported(p: int, n: int) -> None:
    if p not in SUPPORTED_RANGES:
        raise ValueError(f"unsupported prime {_cut(str(p))}; supported: {sorted(SUPPORTED_RANGES)}")
    if not (1 <= n <= SUPPORTED_RANGES[p]):
        raise ValueError(f"W_{_cut(str(n))} at p={p} out of supported range 1..{SUPPORTED_RANGES[p]}")


def ghost(p: int, N: int, components):
    """w_N at the ring elements t_0, ..., t_N: sum of p^i t_i^(p^(N-i))."""
    acc = components[0] ** (p**N)
    for i in range(1, N + 1):
        acc = acc + components[i] ** (p ** (N - i)) * (p**i)
    return acc


def _ghost_sides(p: int, n: int, op: str) -> list:
    """w_N(a) op w_N(b), or -w_N(a) for neg, for N < n, over Z.

    a and b are the variables a0..a{n-1} and b0..b{n-1} (no b for neg).
    """
    names = tuple(f"a{i}" for i in range(n))
    if op != "neg":
        names += tuple(f"b{i}" for i in range(n))
    gens = [MultiPoly.gen(names, v, None) for v in names]
    sides = []
    for N in range(n):
        ga = ghost(p, N, gens[:n])
        if op == "neg":
            sides.append(-ga)
        else:
            gb = ghost(p, N, gens[n:])
            sides.append(ga + gb if op == "add" else ga * gb)
    return sides


@functools.lru_cache(maxsize=None)
def derive_integer_polys(p: int, n: int, op: str) -> tuple:
    """Structure polynomials over Z for one ring operation.

    op is "add", "mul" or "neg".  Returns a tuple of n MultiPoly over Z
    in variables a0..a{n-1} (and b0..b{n-1} for binary ops).  Level N is
    solved from the ghost identity at level N, reusing lower levels; the
    division by p^N is exact by construction and verified as such.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if op not in ("add", "mul", "neg"):
        raise ValueError(f"unknown Witt operation {op!r}")
    polys: list = []
    for N, residue in enumerate(_ghost_sides(p, n, op)):
        for i in range(N):
            residue = residue - polys[i] ** (p ** (N - i)) * (p**i)
        polys.append(residue.exact_div_by_int(p**N))
    return tuple(polys)


def _straight_line(polys, nargs=None):
    """Mod-p polynomials in the same variables as one straight-line program.

    The returned function takes a ring element for each of the first
    nargs variables (all of them by default) and returns the tuple of
    values.  Each later variable names a value already computed, in
    order, so polys[k] may use the values of polys[0], ..., polys[k-1]:
    a triangular solve runs like a table.

    Each polynomial is written in Horner form: the common monomial of
    its terms is taken out first; otherwise the terms are split as
    v*Q + R on the variable v that occurs in the most of them, and Q and
    R are factored the same way.  A power is a square-and-multiply chain
    (v^e from v^(e/2) * v^(e/2), or v^(e-1) * v for odd e), and no
    product is by one.  Coefficients are units mod p: a sum takes out
    the unit of one summand, and the other's relative unit r is a +, a
    - at r = p - 1, or a product by r.  Equal subexpressions are one
    node.  Node i is slot i of a value list: the arguments first, the
    int constants filled in once in start, and each other node an
    (i, op, left, right) of prog, a +, - or * of earlier slots.  The
    function's attribute program is (nargs, start, prog, outs), with
    outs the slots of the results.
    """
    names = polys[0].variables
    nargs = len(names) if nargs is None else nargs
    p = polys[0].modulus
    one = -1  # the node id of the constant 1, which is never written out
    nodes: list = []  # node id -> ("v", name), ("c", int) or (op, left id, right id)
    ids: dict = {}

    def node(key):
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
        return ids[key]

    def times(a, b):
        return b if a == one else a if b == one else node(("*", a, b))

    leaf = {v: node(("v", v)) for v in names[:nargs]}

    def power(v, e):
        if e == 1:
            return leaf[v]
        if e % 2:
            return times(power(v, e - 1), leaf[v])
        half = power(v, e // 2)
        return times(half, half)

    def plus(a, b):
        """The sum of two (node, unit) pairs, as one pair.

        It takes out the unit of a summand that is not the constant 1,
        one with unit 1 if there is one; the other summand's relative
        unit r makes a +, a - (r = p - 1) or a product by r.
        """
        if a[0] == one or (b[0] != one and b[1] == 1 != a[1]):
            a, b = b, a
        (x, cx), (y, cy) = a, b
        y = node(("c", 1)) if y == one else y
        r = cy * pow(cx, -1, p) % p
        if r == 1:
            return node(("+", x, y)), cx
        if r == p - 1:
            return node(("-", x, y)), cx
        return node(("+", x, times(y, node(("c", r))))), cx

    def horner(terms):
        """(node, c) with c * node the polynomial {exponents: coefficient}."""
        if len(terms) == 1:
            [(exps, c)] = terms.items()
            acc = one
            for v, e in zip(names, exps):
                if e:
                    acc = times(acc, power(v, e))
            return acc, c
        common = tuple(map(min, *terms))
        if any(common):
            x, c = horner({tuple(e - g for e, g in zip(exps, common)): c for exps, c in terms.items()})
            return times(horner({common: 1})[0], x), c
        k = max(range(len(names)), key=lambda i: sum(1 for exps in terms if exps[i]))
        return plus(
            horner({exps: c for exps, c in terms.items() if exps[k]}),
            horner({exps: c for exps, c in terms.items() if not exps[k]}),
        )

    outs = []
    for k, q in enumerate(polys):
        x, c = horner(q.terms)
        outs.append(times(x, node(("c", c))) if c != 1 else x)
        if nargs + k < len(names):
            leaf[names[nargs + k]] = outs[-1]

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}
    start = [key[1] if key[0] == "c" else None for key in nodes]
    prog = tuple((i, ops[key[0]], key[1], key[2]) for i, key in enumerate(nodes) if key[0] in ops)

    def run(*args):
        if len(args) != nargs:
            raise TypeError(f"expected {nargs} arguments, got {len(args)}")
        vals = start.copy()
        vals[:nargs] = args
        for i, op, a, b in prog:
            vals[i] = op(vals[a], vals[b])
        return tuple([vals[i] for i in outs])

    run.program = (nargs, start, prog, outs)
    return run


class WittPolyTable:
    """Mod-p structure polynomials for W_n, and add/mul/neg as straight-line programs of them."""

    __slots__ = ("p", "n", "sum_polys", "prod_polys", "neg_polys", "add", "mul", "neg")

    def __init__(self, p: int, n: int):
        check_supported(p, n)
        self.p = p
        self.n = n
        self.sum_polys = tuple(q.reduce_mod(p) for q in derive_integer_polys(p, n, "add"))
        self.prod_polys = tuple(q.reduce_mod(p) for q in derive_integer_polys(p, n, "mul"))
        self.neg_polys = tuple(q.reduce_mod(p) for q in derive_integer_polys(p, n, "neg"))
        self.add = _straight_line(self.sum_polys)
        self.mul = _straight_line(self.prod_polys)
        self.neg = _straight_line(self.neg_polys)


@functools.lru_cache(maxsize=None)
def build_witt_table(p: int, n: int) -> WittPolyTable:
    return WittPolyTable(p, n)


@functools.lru_cache(maxsize=None)
def _teich_sub(p: int, m: int):
    """x - [t] in W_m, one straight-line program in a0, ..., a{m-1}, t.

    It solves x = y + [t] for y level by level.  The k-th sum polynomial
    is a_k + b_k plus terms in lower indices (Serre, Local Fields, II 6),
    so at a = y, b = (t, 0, ..., 0) it reads x_k = y_k + c_k(y_0, ...,
    y_{k-1}, t).  Hence y_0 = x_0 - t and y_k = x_k - c_k, with each c_k
    computed once over F_p[y0, ..., t] from the table's mod-p sum
    polynomials.  Since x - V^i[t] is (x_0, ..., x_{i-1},
    (x_i, ..., x_{n-1}) - [t]) in W_n, this is the tail op of
    localcoh.reduce, at m = n - i.
    """
    table = build_witt_table(p, m)
    names = tuple(f"a{i}" for i in range(m)) + ("t",) + tuple(f"y{i}" for i in range(m))
    *xs, t = (MultiPoly.gen(names, v, p) for v in names[: m + 1])
    ys = [MultiPoly.gen(names, v, p) for v in names[m + 1 :]]
    zero = MultiPoly.zero(names, p)
    sums = table.add(*ys, t, *[zero] * (m - 1))
    polys = [x - (s - y) for x, s, y in zip(xs, sums, ys)]
    return _straight_line(polys, m + 1)


def ghost_compatibility_ok(p: int, n: int) -> bool:
    """Re-derive and check the ghost identities over Z, before reduction.

    For each op and each level N < n this substitutes the structure
    polynomials into w_N and compares with the ghost-side result as an
    identity of integer polynomials.
    """
    check_supported(p, n)
    for op in ("add", "mul", "neg"):
        polys = derive_integer_polys(p, n, op)
        for N, side in enumerate(_ghost_sides(p, n, op)):
            if ghost(p, N, polys) != side:
                return False
    return True


class WittVec:
    """A length-n Witt vector over a commutative F_p-algebra.

    The components are all FpScalars of the vector's prime, or all ring
    elements of characteristic p (MultiPoly, ChartElem); anything else is
    refused here, once, not inside an operation or by a wrong answer.
    Immutable.  A vector of FpScalars is an element of W_n(F_p): it holds
    the Cayley table of (p, n) in _tab and its index sum v_k p^k in _ix,
    and an operation on two vectors of one table is one lookup in it.
    Otherwise _tab and _ix are None.
    """

    __slots__ = ("p", "components", "_tab", "_ix")

    def __init__(self, p: int, components):
        components = tuple(components)
        if not components:
            raise ValueError("Witt vectors here have length >= 1")
        check_supported(p, len(components))
        ix = 0
        for k, c in enumerate(components):
            if type(c) is not FpScalar or c.p != p:
                _check_ring_elements(p, components)
                ix = None
                break
            ix += c.value * p**k
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_tab", None if ix is None else _cayley(p, len(components)))
        object.__setattr__(self, "_ix", ix)

    def __setattr__(self, name, value):
        raise AttributeError("WittVec is immutable")

    @property
    def n(self) -> int:
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, WittVec):
            return False
        if self._tab is not None and self._tab is other._tab:
            return self._ix == other._ix
        return self.p == other.p and self.components == other.components

    def __hash__(self):
        return hash((self.p, self.components))

    def __add__(self, other):
        return witt_add(self, other)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        return witt_sub(self, other)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"WittVec(p={self.p}, {self})"


def _check_ring_elements(p: int, components: tuple) -> None:
    """Raise ValueError unless the components are ring elements of characteristic p."""
    scalar = None
    for c in components:
        if type(c) is FpScalar:
            char, scalar = c.p, c
        elif hasattr(c, "ring_zero"):
            char = characteristic_of(c)
        else:
            kind = "a plain int" if isinstance(c, int) else f"a {type(c).__name__}"
            raise ValueError(f"Witt component {c!r} is {kind}, not in an F_{p}-algebra")
        if char != p:
            raise ValueError(f"Witt component {c!r} has characteristic {char}, not {p}")
    if scalar is not None:
        raise ValueError(f"Witt component {scalar!r} is an F_{p} scalar, but other components are ring elements")


def _check_pair(x: WittVec, y: WittVec) -> None:
    if x.p != y.p:
        raise ValueError(f"prime mismatch: {x.p} vs {y.p}")
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")


def _mixed(x: WittVec, y: WittVec) -> ValueError:
    """The error for a vector of F_p scalars met with one of ring elements, naming both kinds."""
    kinds = [f"F_{v.p} scalars" if v._tab is not None else f"{type(v.components[0]).__name__} elements" for v in (x, y)]
    return ValueError(f"cannot combine a Witt vector of {kinds[0]} with one of {kinds[1]}")


@functools.lru_cache(maxsize=None)
def _residues(p: int) -> tuple:
    """FpScalar(p, 0), ..., FpScalar(p, p - 1), the interned residue labels of F_p.

    They are the components of every Cayley table element, and so of
    every input the Witt trials draw.  Only supported primes ask for them,
    so there is one tuple per supported prime at most.
    """
    return tuple(FpScalar(p, v) for v in range(p))


@functools.lru_cache(maxsize=None)
def _cayley(p: int, n: int) -> tuple:
    """(elems, add, mul, neg): W_n(F_p) as lookups by index, the _tab of its vectors.

    elems[i] is the vector of index i, with components from _residues(p);
    add[i][j] and mul[i][j] are elems[i] + elems[j] and elems[i] * elems[j],
    and neg[i] is -elems[i].  Every entry is the table's straight-line program
    evaluated on the digits as ints and reduced mod p, never Z/p^n, so
    checks against Z/p^n still test the polynomials.
    """
    table = build_witt_table(p, n)
    box = _residues(p)
    digits = [tuple(i // p**k % p for k in range(n)) for i in range(p**n)]
    elems, add, mul, neg = tab = ([], [], [], [])
    elems += (_wrap(p, tuple(box[d] for d in ds), tab, i) for i, ds in enumerate(digits))

    def lookup(values):
        return elems[sum(v % p * p**k for k, v in enumerate(values))]

    add += [[lookup(table.add(*x, *y)) for y in digits] for x in digits]
    mul += [[lookup(table.mul(*x, *y)) for y in digits] for x in digits]
    neg += [lookup(table.neg(*x)) for x in digits]
    return tab


def _wrap(p: int, components: tuple, tab=None, ix=None) -> WittVec:
    """A Witt vector not checked again: a generic op's result, or a Cayley table element.

    The table of (p, n) exists only for a supported truncation, and an
    operation on ring elements of characteristic p yields such elements,
    so what WittVec() would check holds by construction.
    """
    x = object.__new__(WittVec)
    object.__setattr__(x, "p", p)
    object.__setattr__(x, "components", components)
    object.__setattr__(x, "_tab", tab)
    object.__setattr__(x, "_ix", ix)
    return x


def _polys(x: WittVec, y: WittVec) -> WittPolyTable:
    """The table whose programs run a generic op on x and y, after the checks the lookup skips."""
    _check_pair(x, y)
    if x._tab is not None or y._tab is not None:
        raise _mixed(x, y)
    return build_witt_table(x.p, x.n)


def witt_add(x: WittVec, y: WittVec) -> WittVec:
    tab = x._tab
    if tab is not None and tab is y._tab:
        return tab[1][x._ix][y._ix]
    return _wrap(x.p, _polys(x, y).add(*x.components, *y.components))

def witt_mul(x: WittVec, y: WittVec) -> WittVec:
    tab = x._tab
    if tab is not None and tab is y._tab:
        return tab[2][x._ix][y._ix]
    return _wrap(x.p, _polys(x, y).mul(*x.components, *y.components))

def witt_neg(x: WittVec) -> WittVec:
    if x._tab is not None:
        return x._tab[3][x._ix]
    return _wrap(x.p, build_witt_table(x.p, len(x.components)).neg(*x.components))

def witt_sub(x: WittVec, y: WittVec) -> WittVec:
    return witt_add(x, witt_neg(y))


def verschiebung(x: WittVec, times: int = 1) -> WittVec:
    """V^times: prepend zero components (lands in W_{n+times})."""
    if times < 0:
        raise ValueError("V only shifts forward")
    if x._tab is not None:
        return _cayley(x.p, len(x.components) + times)[0][x._ix * x.p**times]
    z = x.components[0].ring_zero()
    return WittVec(x.p, (z,) * times + x.components)


def restriction(x: WittVec, times: int = 1) -> WittVec:
    """R^times: drop the last components (lands in W_{n-times})."""
    if times < 0 or times >= x.n:
        raise ValueError(f"cannot restrict W_{x.n} {times} times")
    if not times:
        return x
    if x._tab is not None:
        return _cayley(x.p, x.n - times)[0][x._ix % x.p ** (x.n - times)]
    return WittVec(x.p, x.components[: x.n - times])


def witt_frobenius(x: WittVec) -> WittVec:
    """Componentwise p-th power; the Witt Frobenius for F_p-algebras.

    On W_n(F_p) it is the identity, since c^p = c in F_p.
    """
    if x._tab is not None:
        return x
    return WittVec(x.p, tuple(c ** x.p for c in x.components))


def characteristic_of(elem) -> int:
    """The characteristic of an element's ring: an FpScalar's p, else its modulus, or 0 over Z."""
    if type(elem) is FpScalar:
        return elem.p
    if not hasattr(elem, "modulus"):
        raise TypeError(f"cannot infer characteristic of {elem!r}")
    return elem.modulus or 0


def teichmuller(elem, n: int) -> WittVec:
    """[a] = (a, 0, ..., 0) in W_n."""
    p = characteristic_of(elem)
    check_supported(p, n)
    if type(elem) is FpScalar:
        return _cayley(p, n)[0][elem.value]
    return WittVec(p, (elem,) + (elem.ring_zero(),) * (n - 1))


def subtraction_components(p: int, n: int) -> tuple:
    """Components of (t1+t2, 0, ..) - (t2, 0, ..) over F_p[t1, t2].

    The i-th entry is the universal polynomial S_i(t1, t2); S_0 = t1.
    """
    names = ("t1", "t2")
    t1 = MultiPoly.gen(names, "t1", p)
    t2 = MultiPoly.gen(names, "t2", p)
    zero = MultiPoly.zero(names, p)
    lhs = WittVec(p, (t1 + t2,) + (zero,) * (n - 1))
    rhs = WittVec(p, (t2,) + (zero,) * (n - 1))
    return witt_sub(lhs, rhs).components
