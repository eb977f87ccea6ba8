import ast
import itertools
import operator
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest

from rdpk3 import witt
from rdpk3.chartring import ChartElem, chart_from_key
from rdpk3.ffpoly import FiniteField, FpScalar, MultiPoly
from rdpk3.witt import (
    SUPPORTED_RANGES,
    WittVec,
    _teich_sub,
    build_witt_table,
    check_supported,
    derive_integer_polys,
    ghost,
    ghost_compatibility_ok,
    restriction,
    subtraction_components,
    teichmuller,
    verschiebung,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_neg,
    witt_sub,
)


def gens(p, names):
    return [MultiPoly.gen(tuple(names), nm, p) for nm in names]


def fpvec(p, *values):
    return WittVec(p, tuple(FpScalar(p, v) for v in values))


def test_supported_ranges():
    assert SUPPORTED_RANGES == {2: 4, 3: 2, 5: 2, 7: 1}
    check_supported(2, 4)
    check_supported(7, 1)
    with pytest.raises(ValueError):
        check_supported(2, 5)
    with pytest.raises(ValueError):
        check_supported(7, 2)
    with pytest.raises(ValueError):
        check_supported(11, 1)
    with pytest.raises(ValueError):
        check_supported(3, 0)


def test_ghost_shape():
    """w_N is sum over i of p^i t_i^(p^(N-i))."""
    t0, t1, t2 = (MultiPoly.gen(("t0", "t1", "t2"), v) for v in ("t0", "t1", "t2"))
    assert ghost(2, 2, (t0, t1, t2)) == t0**4 + 2 * t1**2 + 4 * t2
    assert ghost(2, 2, (3, 5, 7)) == 3**4 + 2 * 5**2 + 4 * 7
    assert ghost(3, 1, (t0, t1)) == t0**3 + 3 * t1


def test_ghost_compatibility_full_grid():
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            assert ghost_compatibility_ok(p, n), (p, n)


def test_table_structure():
    tab = build_witt_table(2, 3)
    assert len(tab.sum_polys) == 3
    assert len(tab.prod_polys) == 3
    assert len(tab.neg_polys) == 3
    # first sum component is a0 + b0, first product is a0 b0
    vs = tab.sum_polys[0].variables
    a0 = MultiPoly.gen(vs, "a0", 2)
    b0 = MultiPoly.gen(vs, "b0", 2)
    assert tab.sum_polys[0] == a0 + b0
    pv = tab.prod_polys[0].variables
    assert tab.prod_polys[0] == MultiPoly.gen(pv, "a0", 2) * MultiPoly.gen(pv, "b0", 2)
    # tables are cached
    assert build_witt_table(2, 3) is tab


def zero_like(x):
    return fpvec(x.p, *[0] * x.n)


def multiples(one, count):
    """0, 1, ..., count - 1 times one, by repeated addition."""
    els = [zero_like(one)]
    while len(els) < count:
        els.append(els[-1] + one)
    return els


def test_w2f2_is_z4():
    """Length-2 vectors over the 2-element field behave like Z/4."""
    els = multiples(teichmuller(FpScalar(2, 1), 2), 4)
    assert els[0] == fpvec(2, 0, 0)
    assert els[1] == fpvec(2, 1, 0)
    assert els[2] == fpvec(2, 0, 1)
    assert els[3] == fpvec(2, 1, 1)
    assert len(set(els)) == 4
    for i in range(4):
        for j in range(4):
            assert witt_add(els[i], els[j]) == els[(i + j) % 4]
            assert witt_mul(els[i], els[j]) == els[(i * j) % 4]
    assert witt_neg(els[1]) == els[3]
    assert witt_sub(els[1], els[3]) == els[2]


def test_w2f3_is_z9():
    els = multiples(teichmuller(FpScalar(3, 1), 2), 9)
    assert len(set(els)) == 9
    for i in range(0, 9, 2):
        for j in range(0, 9, 3):
            assert witt_add(els[i], els[j]) == els[(i + j) % 9]
            assert witt_mul(els[i], els[j]) == els[(i * j) % 9]


def test_operator_overloads():
    x = fpvec(2, 1, 0, 1)
    y = fpvec(2, 1, 1, 0)
    assert x + y == witt_add(x, y)
    assert x * y == witt_mul(x, y)
    assert x - y == witt_sub(x, y)
    assert -x == witt_neg(x)
    assert x + fpvec(2, 0, 0, 0) == x
    assert x * fpvec(2, 1, 0, 0) == x


def test_pair_validation():
    with pytest.raises(ValueError):
        witt_add(fpvec(2, 1, 0), fpvec(3, 1, 0))
    with pytest.raises(ValueError):
        witt_add(fpvec(2, 1, 0), fpvec(2, 1, 0, 0))
    with pytest.raises(ValueError):
        WittVec(2, ())


def test_ring_axioms_random():
    rng = random.Random(2026)
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            for _ in range(25):
                x = fpvec(p, *(rng.randrange(p) for _ in range(n)))
                y = fpvec(p, *(rng.randrange(p) for _ in range(n)))
                z = fpvec(p, *(rng.randrange(p) for _ in range(n)))
                assert x + y == y + x
                assert (x + y) + z == x + (y + z)
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x + (-x) == zero_like(x)


def test_teichmuller_multiplicative():
    rng = random.Random(5)
    for p, nmax in SUPPORTED_RANGES.items():
        for _ in range(20):
            a = rng.randrange(p)
            b = rng.randrange(p)
            ta = teichmuller(FpScalar(p, a), nmax)
            tb = teichmuller(FpScalar(p, b), nmax)
            assert ta * tb == teichmuller(FpScalar(p, a * b), nmax)
    t = teichmuller(FpScalar(5, 3), 2)
    assert t == fpvec(5, 3, 0)


def test_verschiebung_restriction_shapes():
    x = fpvec(2, 1, 1)
    v = verschiebung(x)
    assert v == fpvec(2, 0, 1, 1)
    assert verschiebung(x, 2) == fpvec(2, 0, 0, 1, 1)
    assert restriction(v) == fpvec(2, 0, 1)
    assert restriction(fpvec(2, 1, 0, 1, 1), 3) == fpvec(2, 1)
    with pytest.raises(ValueError):
        restriction(fpvec(2, 1), 1)
    with pytest.raises(ValueError):
        verschiebung(fpvec(2, 1, 0, 1, 1), 1)


def test_verschiebung_additive():
    rng = random.Random(11)
    for p in (2, 3, 5):
        n = SUPPORTED_RANGES[p] - 1
        for _ in range(30):
            x = fpvec(p, *(rng.randrange(p) for _ in range(n)))
            y = fpvec(p, *(rng.randrange(p) for _ in range(n)))
            assert verschiebung(x + y) == verschiebung(x) + verschiebung(y)


def test_frobenius_is_componentwise_power():
    x = fpvec(3, 2, 1)
    assert witt_frobenius(x) == fpvec(3, 2**3 % 3, 1)
    y = fpvec(2, 1, 1, 0)
    assert witt_frobenius(y) == y
    # Frobenius is a ring endomorphism on polynomial components
    a, b, c, d = gens(3, ("a", "b", "c", "d"))
    u = WittVec(3, (a, b))
    w = WittVec(3, (c, d))
    assert witt_frobenius(u + w) == witt_frobenius(u) + witt_frobenius(w)
    assert witt_frobenius(u * w) == witt_frobenius(u) * witt_frobenius(w)


def test_multiplication_by_p_factors():
    """p x = V(F(R(x))) on every supported length above one."""
    rng = random.Random(13)
    for p, nmax in SUPPORTED_RANGES.items():
        if nmax < 2:
            continue
        for n in range(2, nmax + 1):
            for _ in range(20):
                x = fpvec(p, *(rng.randrange(p) for _ in range(n)))
                px = zero_like(x)
                for _ in range(p):
                    px = px + x
                assert px == verschiebung(witt_frobenius(restriction(x)))


def test_v_shift_single():
    e = FpScalar(2, 1)
    assert verschiebung(teichmuller(e, 3), 0) == fpvec(2, 1, 0, 0)
    assert verschiebung(teichmuller(e, 1), 2) == fpvec(2, 0, 0, 1)
    with pytest.raises(ValueError):
        verschiebung(teichmuller(e, 1), 4)


def test_subtraction_prefix_congruence():
    """(t1+t2, 0, ..) - (t2, 0, ..): graded pieces and leading term."""
    comps = subtraction_components(2, 4)
    t1 = MultiPoly.gen(("t1", "t2"), "t1", 2)
    t2 = MultiPoly.gen(("t1", "t2"), "t2", 2)
    assert comps[0] == t1
    for i, s in enumerate(comps):
        assert s.is_homogeneous()
        assert s.total_degree() == 2**i
        diff = s - t1 * t2 ** (2**i - 1)
        assert all(e[0] >= 2 for e in diff.terms), i


def test_subtraction_three_term_carry():
    a, b, c = gens(2, ("a", "b", "c"))
    z = a.ring_zero()
    got = witt_sub(WittVec(2, (a + b + c, z, z)), WittVec(2, (b, b * c, z)))
    third = (a + c) ** 3 * b + (a + c) * b**3 + (a * a + 3 * a * c + c * c) * b * b
    assert got == WittVec(2, (a + c, a * b, third))


def test_subtraction_teichmuller_sum_length4():
    a, b = gens(2, ("a", "b"))
    z = a.ring_zero()
    got = WittVec(2, (a + b, z, z, z)) - WittVec(2, (a, z, z, z)) - WittVec(2, (b, z, z, z))
    assert got == WittVec(
        2,
        (
            z,
            a * b,
            a * b * (a**2 + a * b + b**2),
            a * b * (a**6 + a**5 * b + a**3 * b**3 + a * b**5 + b**6),
        ),
    )


def test_subtraction_middle_coordinate():
    c0, c1, c2, c3, d2 = gens(2, ("c0", "c1", "c2", "c3", "d2"))
    z = c0.ring_zero()
    got = WittVec(2, (c0, c1, c2 + d2, c3)) - WittVec(2, (z, z, d2, z))
    assert got == WittVec(2, (c0, c1, c2, c3 + c2 * d2))


def test_subtraction_teichmuller_sum_odd_p():
    a, b = gens(3, ("a", "b"))
    z = a.ring_zero()
    got = WittVec(3, (a + b, z)) - WittVec(3, (a, z)) - WittVec(3, (b, z))
    assert got == WittVec(3, (z, a * b * (a + b)))

    a, b = gens(5, ("a", "b"))
    z = a.ring_zero()
    got = WittVec(5, (a + b, z)) - WittVec(5, (a, z)) - WittVec(5, (b, z))
    assert got == WittVec(5, (z, a * b * (a + b) * (a**2 + a * b + b**2)))


def test_projection_formula_generic():
    """V(x) y = V(x F(R(y))) over a generic polynomial point."""
    for p in (2, 3, 5):
        names = ("x0", "y0", "y1")
        x0, y0, y1 = gens(p, names)
        x = WittVec(p, (x0,))
        y = WittVec(p, (y0, y1))
        lhs = verschiebung(x) * y
        rhs = verschiebung(x * witt_frobenius(restriction(y)))
        assert lhs == rhs, p


def test_projection_formula_deep():
    names = ("x0", "x1", "y0", "y1", "y2", "y3")
    x0, x1, y0, y1, y2, y3 = gens(2, names)
    x = WittVec(2, (x0, x1))
    y = WittVec(2, (y0, y1, y2, y3))
    ry = restriction(y, 2)
    lhs = verschiebung(x, 2) * y
    rhs = verschiebung(x * witt_frobenius(witt_frobenius(ry)), 2)
    assert lhs == rhs


def _interpreted(polys, xs, ys=()):
    env = {f"a{i}": c for i, c in enumerate(xs)}
    env.update({f"b{i}": c for i, c in enumerate(ys)})
    zero = xs[0].ring_zero()
    return tuple(q.evaluate(env, zero) for q in polys)


def _random_component(kind, p, rng):
    """A random element of F_p (an int), of F_p[s, t], or of a chart ring over F_p."""
    if kind == "scalar":
        return rng.randrange(p)
    if kind == "poly":
        terms = {(rng.randrange(3), rng.randrange(3)): rng.randrange(p) for _ in range(3)}
        return MultiPoly(("s", "t"), terms, p)
    ring = kind
    terms = {
        (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(ring.wdeg)):
            rng.randrange(p)
        for _ in range(2)
    }
    return ChartElem(ring, terms)


def _mod(p, values):
    return [v % p for v in values]


def test_compiled_tables_match_interpreter():
    """On ints mod p against FiniteField.evaluate_poly, on ring elements against MultiPoly.evaluate."""
    rng = random.Random(4686)
    rings = {2: chart_from_key("2:D9:2"), 3: chart_from_key("3:E8:2")}
    for p, nmax in SUPPORTED_RANGES.items():
        field = FiniteField(p)
        kinds = ["scalar", "poly"] + ([rings[p]] if p in rings else [])
        for n in range(1, nmax + 1):
            table = build_witt_table(p, n)
            for polys in (table.sum_polys, table.prod_polys, table.neg_polys):
                assert len(polys) == n
                assert all(isinstance(q, MultiPoly) and q.modulus == p for q in polys)
            for kind in kinds:
                for _ in range(3):
                    xs = tuple(_random_component(kind, p, rng) for _ in range(n))
                    ys = tuple(_random_component(kind, p, rng) for _ in range(n))
                    if kind == "scalar":
                        for fn, polys, args in (
                            (table.add, table.sum_polys, xs + ys),
                            (table.mul, table.prod_polys, xs + ys),
                            (table.neg, table.neg_polys, xs),
                        ):
                            assert _mod(p, fn(*args)) == [field.evaluate_poly(q, args) for q in polys]
                        continue
                    assert table.add(*xs, *ys) == _interpreted(table.sum_polys, xs, ys)
                    assert table.mul(*xs, *ys) == _interpreted(table.prod_polys, xs, ys)
                    assert table.neg(*xs) == _interpreted(table.neg_polys, xs)


# Products per compiled function, (Horner form, flat monomial sums): the
# flat sums are the same polynomials summed term by term with shared
# square-and-multiply powers, and the tail op there was add(x, neg([t])).
PRODUCTS = {
    (2, 1, "add"): (0, 0), (2, 1, "mul"): (1, 1), (2, 1, "neg"): (0, 0), (2, 1, "tail"): (0, 0),
    (2, 2, "add"): (1, 1), (2, 2, "mul"): (5, 5), (2, 2, "neg"): (1, 1), (2, 2, "tail"): (1, 2),
    (2, 3, "add"): (5, 12), (2, 3, "mul"): (13, 15), (2, 3, "neg"): (3, 4), (2, 3, "tail"): (4, 9),
    (2, 4, "add"): (23, 77), (2, 4, "mul"): (35, 57), (2, 4, "neg"): (9, 12), (2, 4, "tail"): (17, 39),
    (3, 1, "add"): (0, 0), (3, 1, "mul"): (1, 1), (3, 1, "neg"): (1, 1), (3, 1, "tail"): (0, 1),
    (3, 2, "add"): (2, 6), (3, 2, "mul"): (7, 7), (3, 2, "neg"): (2, 2), (3, 2, "tail"): (2, 6),
    (5, 1, "add"): (0, 0), (5, 1, "mul"): (1, 1), (5, 1, "neg"): (1, 1), (5, 1, "tail"): (0, 1),
    (5, 2, "add"): (8, 14), (5, 2, "mul"): (9, 9), (5, 2, "neg"): (2, 2), (5, 2, "tail"): (8, 14),
    (7, 1, "add"): (0, 0), (7, 1, "mul"): (1, 1), (7, 1, "neg"): (1, 1), (7, 1, "tail"): (0, 1),
}


def _programs():
    """(p, n, op) -> the program of every table function and tail op."""
    out = {}
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            table = build_witt_table(p, n)
            for op in ("add", "mul", "neg"):
                out[p, n, op] = getattr(table, op).program
            out[p, n, "tail"] = _teich_sub(p, n).program
    return out


def test_compiled_functions_are_shared_straight_line_binary_ops():
    """Each node is +, - or * of earlier slots, arguments or int constants.

    Constants are units mod p, no product takes the constant 1, no
    (op, left, right) occurs twice, every node is reachable from the
    results, and the products of each program are pinned at or below the
    flat monomial sums.
    """
    programs = _programs()
    assert set(programs) == set(PRODUCTS)
    for key, (nargs, start, prog, outs) in programs.items():
        assert all(v is None for v in start[:nargs]), key
        consts = {i for i, v in enumerate(start) if v is not None}
        assert all(type(start[i]) is int and 1 <= start[i] < key[0] for i in consts), key
        ones = {i for i in consts if start[i] == 1}
        done = set(range(nargs)) | consts
        for i, op, a, b in prog:
            assert op in (operator.add, operator.sub, operator.mul), key
            assert i not in done and a in done and b in done, key
            assert not (op is operator.mul and {a, b} & ones), key
            done.add(i)
        assert done == set(range(len(start))), key
        assert len({(op, a, b) for _, op, a, b in prog}) == len(prog), (key, "written twice")
        children = {i: (a, b) for i, _, a, b in prog}
        reached, todo = set(), list(outs)
        while todo:
            i = todo.pop()
            if i not in reached:
                reached.add(i)
                todo.extend(children.get(i, ()))
        assert reached == done, (key, sorted(done - reached))
        horner, flat = PRODUCTS[key]
        products = sum(op is operator.mul for _, op, _, _ in prog)
        assert products == horner <= flat, (key, products)


def _reaching_only_the_last_result(program):
    """The products from which every path of uses ends at the last result, through + and - only.

    A path that meets an earlier result, or a product after its start,
    disqualifies the start; so does a node with no use that is not the
    last result.
    """
    _nargs, _start, prog, outs = program
    kinds = {i: op for i, op, _a, _b in prog}
    users: dict = {}
    for i, _op, a, b in prog:
        users.setdefault(a, set()).add(i)
        users.setdefault(b, set()).add(i)

    def only_last(i):
        if i in outs[:-1]:
            return False
        if i == outs[-1]:
            return True
        return bool(users.get(i)) and all(kinds[u] is not operator.mul and only_last(u) for u in users[i])

    return {i for i, op, _a, _b in prog if op is operator.mul and only_last(i)}


def test_hooked_nodes_are_the_products_that_reach_only_the_last_result_through_plus_and_minus():
    """On every tail op and table program, found by a forward walk over the uses.

    Only the tail ops hook them (build_witt_table finds none); a hook is
    called once per hooked node, the ordinary product as the hook changes
    no result, and any value at those nodes leaves the earlier results
    as they are.
    """
    rng = random.Random(3701)
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            table = build_witt_table(p, n)
            runs = {"add": table.add, "mul": table.mul, "neg": table.neg, "tail": _teich_sub(p, n)}
            for name, run in runs.items():
                key = (p, n, name)
                nargs, _start, prog, outs = run.program
                want = _reaching_only_the_last_result(run.program)
                assert witt._last_linear_products(prog, outs) == want, key
                assert run.last_linear == (want if name == "tail" else frozenset()), key
                if name == "tail" and n >= 2:
                    assert want, key
                for _ in range(3):
                    args = [rng.randrange(p) for _ in range(nargs)]
                    calls = []

                    def counted(a, b):
                        calls.append(1)
                        return a * b

                    plain = run(*args)
                    assert run(*args, _last_mul=counted) == plain, key
                    assert len(calls) == len(run.last_linear), key
                    moved = run(*args, _last_mul=lambda a, b: a * b + 1000)
                    assert moved[:-1] == plain[:-1], key
                    assert (moved[-1] != plain[-1]) == bool(run.last_linear), key


def test_no_module_runs_generated_source():
    """A ratchet: no module of rdpk3 calls the builtins exec or compile (re.compile is an attribute)."""
    calls = []
    for path in sorted(pathlib.Path(witt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Name) and func.id in ("exec", "compile"):
                calls.append(f"{path.name}:{node.lineno} {func.id}")
    assert calls == []


def test_tail_subtraction_of_a_teichmuller_lift_matches_witt_sub():
    """The compiled x - [t] equals the full witt_sub of a Teichmuller lift.

    On ints mod p the oracle is x + (-[t]) from the table's sum and
    negation polynomials, evaluated by FiniteField.evaluate_poly.
    """
    rng = random.Random(1207)
    keys = {2: "2:D9:2", 3: "3:E8:2", 5: "5:A4", 7: "7:A6"}
    rings = {p: chart_from_key(key) for p, key in keys.items()}
    for p, nmax in SUPPORTED_RANGES.items():
        field = FiniteField(p)
        for m in range(1, nmax + 1):
            sub = _teich_sub(p, m)
            table = build_witt_table(p, m)
            for kind in ("scalar", "poly", rings[p]):
                for _ in range(4):
                    xs = tuple(_random_component(kind, p, rng) for _ in range(m))
                    t = _random_component(kind, p, rng)
                    if kind == "scalar":
                        lift = (t,) + (0,) * (m - 1)
                        neg = tuple(field.evaluate_poly(q, lift) for q in table.neg_polys)
                        want = [field.evaluate_poly(q, xs + neg) for q in table.sum_polys]
                        assert _mod(p, sub(*xs, t)) == want, (p, m, kind)
                        continue
                    want = witt_sub(WittVec(p, xs), teichmuller(t, m)).components
                    assert sub(*xs, t) == want, (p, m, kind)


def _to_int(p, vec):
    """The image of an F_p Witt vector in Z/p^n: sum of p^i [a_i], [a] = a^(p^(n-1))."""
    n = vec.n
    return sum(p**i * pow(c.value, p ** (n - 1), p**n) for i, c in enumerate(vec.components)) % p**n


def test_fp_arithmetic_is_z_mod_p_to_the_n_exhaustively():
    """W_n(F_p) = Z/p^n on every pair of vectors, for each supported truncation."""
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            m = p**n
            vecs = [fpvec(p, *digits) for digits in itertools.product(range(p), repeat=n)]
            assert sorted(_to_int(p, v) for v in vecs) == list(range(m))
            for x in vecs:
                xi = _to_int(p, x)
                neg = witt_neg(x)
                assert _to_int(p, neg) == -xi % m, (p, n, x)
                for y in vecs:
                    yi = _to_int(p, y)
                    results = (witt_add(x, y), witt_mul(x, y), witt_sub(x, y))
                    assert [_to_int(p, r) for r in results] == [
                        (xi + yi) % m, xi * yi % m, (xi - yi) % m
                    ], (p, n, x, y)
                    for r in results + (neg,):
                        assert all(type(c) is FpScalar and c.p == p for c in r.components)


def test_every_cayley_entry_is_the_compiled_function_and_z_mod_p_to_the_n():
    """Each entry is the compiled function on the digits as ints mod p, the
    structure polynomials evaluated by FiniteField.evaluate_poly, and Z/p^n."""
    for p, nmax in SUPPORTED_RANGES.items():
        field = FiniteField(p)
        for n in range(1, nmax + 1):
            table = build_witt_table(p, n)
            tab = elems, add, mul, neg = witt._cayley(p, n)
            size = p**n
            assert len(elems) == len(neg) == len(add) == len(mul) == size
            assert all(len(row) == size for row in add + mul)
            box = witt._residues(p)
            for i, x in enumerate(elems):
                assert all(c is box[c.value] for c in x.components)
                assert x._ix == sum(c.value * p**k for k, c in enumerate(x.components)) == i
                assert x._tab is tab
            digits = [tuple(c.value for c in x.components) for x in elems]

            def values(r):
                return [c.value for c in r.components]

            for i, x in enumerate(elems):
                xs = digits[i]
                want = [field.evaluate_poly(q, xs) for q in table.neg_polys]
                assert values(neg[i]) == _mod(p, table.neg(*xs)) == want, (p, n, i)
                assert _to_int(p, neg[i]) == -_to_int(p, x) % size
                for j, y in enumerate(elems):
                    args = xs + digits[j]
                    for got, fn, polys, op in (
                        (add, table.add, table.sum_polys, int.__add__),
                        (mul, table.mul, table.prod_polys, int.__mul__),
                    ):
                        r = got[i][j]
                        want = [field.evaluate_poly(q, args) for q in polys]
                        assert values(r) == _mod(p, fn(*args)) == want, (p, n, i, j)
                        assert _to_int(p, r) == op(_to_int(p, x), _to_int(p, y)) % size


def test_every_fp_result_is_an_element_of_its_cayley_table():
    """Ring ops, F and [a] land in the table of (p, n); V and R in the table of their length."""
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            tab = witt._cayley(p, n)
            elems = tab[0]
            for x in elems:
                results = [witt_neg(x), witt_frobenius(x), teichmuller(x.components[0], n)]
                results += [op(x, y) for y in elems for op in (witt_add, witt_mul, witt_sub)]
                for r in results:
                    assert r._tab is tab and r is elems[r._ix]
                shifted = [verschiebung(x, k) for k in range(1, nmax - n + 1)]
                shifted += [restriction(x, k) for k in range(1, n)]
                for r in shifted:
                    other = witt._cayley(p, r.n)
                    assert r._tab is other and r is other[0][r._ix]


def test_a_user_built_vector_carries_its_table_and_combines_with_table_elements():
    rng = random.Random(25)
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            tab = elems, add, mul, neg = witt._cayley(p, n)
            for i, x in enumerate(elems):
                digits = [c.value for c in x.components]
                for u in (WittVec(p, x.components), fpvec(p, *digits)):
                    assert u is not x and u._tab is tab and u._ix == i
                    assert u == x and x == u and hash(u) == hash(x)
                    assert all(u != y and y != u for y in elems if y is not x)
                    j = rng.randrange(len(elems))
                    assert witt_add(u, elems[j]) is add[i][j] and witt_add(elems[j], u) is add[j][i]
                    assert witt_mul(u, elems[j]) is mul[i][j] and witt_mul(elems[j], u) is mul[j][i]
                    assert witt_neg(u) is neg[i] and witt_sub(u, u) is elems[0]


def test_fp_lookups_keep_the_mismatch_and_mixed_messages():
    a = MultiPoly.gen(("a",), "a", 2)
    for x in (witt._cayley(2, 2)[0][3], fpvec(2, 1, 1)):
        for y, message in (
            (fpvec(3, 1, 1), "prime mismatch: 2 vs 3"),
            (witt._cayley(3, 2)[0][4], "prime mismatch: 2 vs 3"),
            (fpvec(2, 1, 1, 0), "length mismatch: 2 vs 3"),
            (witt._cayley(2, 1)[0][1], "length mismatch: 2 vs 1"),
            (WittVec(2, (a, a)), "cannot combine a Witt vector of F_2 scalars with one of MultiPoly elements"),
        ):
            assert x != y and y != x
            for op in (witt_add, witt_mul, witt_sub):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    op(x, y)


def test_interned_and_fresh_vectors_are_equal_and_hash_equal():
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            for i, interned in enumerate(witt._cayley(p, n)[0]):
                fresh = fpvec(p, *(i // p**k % p for k in range(n)))
                assert fresh is not interned and fresh._ix == interned._ix == i
                assert fresh == interned and interned == fresh
                assert hash(fresh) == hash(interned)
                boxed = witt._wrap(p, fresh.components)  # no index: compared by components
                assert boxed == interned and interned == boxed and hash(boxed) == hash(interned)
    # one index, another truncation or prime
    assert fpvec(2, 1) != fpvec(2, 1, 0)
    assert fpvec(2, 1, 0) != fpvec(3, 1, 0)


def test_witt_vectors_are_immutable():
    x = fpvec(2, 1, 0)
    for name, value in (("components", (FpScalar(2, 0), FpScalar(2, 0))), ("p", 3), ("_ix", 0), ("_tab", None)):
        with pytest.raises(AttributeError, match="WittVec is immutable"):
            setattr(x, name, value)
    assert x == fpvec(2, 1, 0) and x._ix == 1


def test_shifts_and_lifts_out_of_range_raise_as_before():
    a = gens(2, ("a",))[0]
    for x in (fpvec(2, 1, 0, 1), WittVec(2, (a, a, a))):
        with pytest.raises(ValueError, match=re.escape("W_5 at p=2 out of supported range 1..4")):
            verschiebung(x, 2)
        with pytest.raises(ValueError, match="V only shifts forward"):
            verschiebung(x, -1)
        with pytest.raises(ValueError, match="cannot restrict W_3 3 times"):
            restriction(x, 3)
    with pytest.raises(ValueError, match=re.escape("W_2 at p=7 out of supported range 1..1")):
        verschiebung(fpvec(7, 3))
    with pytest.raises(ValueError, match=re.escape("W_3 at p=5 out of supported range 1..2")):
        teichmuller(FpScalar(5, 2), 3)
    with pytest.raises(ValueError, match=re.escape("unsupported prime 11")):
        teichmuller(FpScalar(11, 2), 1)


def test_fp_arithmetic_builds_no_scalar_and_checks_no_result(monkeypatch):
    """Results are table elements, whose components are the interned residues of each p."""
    rng = random.Random(16)
    pairs = [
        (fpvec(p, *rng.choices(range(p), k=n)), fpvec(p, *rng.choices(range(p), k=n)))
        for p, nmax in SUPPORTED_RANGES.items()
        for n in range(1, nmax + 1)
        for _ in range(5)
    ]

    def every_result():
        out = []
        for x, y in pairs:
            p, n = x.p, x.n
            out += [witt_add(x, y), witt_mul(x, y), witt_neg(x), witt_sub(x, y)]
            out += [teichmuller(x.components[0], n), verschiebung(x, 0)]
            if n < SUPPORTED_RANGES[p]:
                out.append(verschiebung(x, SUPPORTED_RANGES[p] - n))
            if n > 1:
                out.append(restriction(x, n - 1))
            assert witt_frobenius(x) is x
        return out

    every_result()  # tables and residue tuples are built once, outside the count
    built = {"FpScalar": 0, "WittVec": 0}
    for cls in (FpScalar, WittVec):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    results = every_result()
    assert built == {"FpScalar": 0, "WittVec": 0}
    for r in results:
        assert type(r) is WittVec
        assert all(c is witt._residues(r.p)[c.value] for c in r.components)


def test_a_component_of_another_modulus_still_raises():
    """A scalar of another prime is refused when the vector is built, and named."""
    for p, components, named in (
        (2, (FpScalar(2, 1), FpScalar(3, 1)), "FpScalar(3, 1) has characteristic 3, not 2"),
        (3, (FpScalar(3, 1), FpScalar(5, 1)), "FpScalar(5, 1) has characteristic 5, not 3"),
        (2, (FpScalar(3, 1), FpScalar(3, 2)), "FpScalar(3, 1) has characteristic 3, not 2"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"Witt component {named}")):
            WittVec(p, components)
    # V, R and F start from a checked vector, so none of them can carry one in
    x = fpvec(2, 1, 1)
    for r in (verschiebung(x), restriction(fpvec(2, 1, 1, 0)), witt_frobenius(x)):
        assert r._tab is not None and all(c.p == 2 for c in r.components)


@pytest.mark.parametrize(
    "build,named",
    [
        (lambda: witt_neg(WittVec(3, (FpScalar(3, 1), FpScalar(5, 1)))), "FpScalar(5, 1) has characteristic 5"),
        (lambda: witt_add(WittVec(3, (FpScalar(5, 1),)), fpvec(3, 2)), "FpScalar(5, 1) has characteristic 5"),
        (lambda: witt_mul(fpvec(3, 2), WittVec(3, (FpScalar(5, 3),))), "FpScalar(5, 3) has characteristic 5"),
        (
            lambda: witt_add(WittVec(2, (FpScalar(3, 1), FpScalar(3, 2))), fpvec(2, 0, 1)),
            "FpScalar(3, 1) has characteristic 3",
        ),
    ],
    ids=["neg-one-foreign-component", "add-n1", "mul-n1", "add-all-foreign"],
)
def test_a_foreign_modulus_raises_even_when_no_polynomial_mixes_it(build, named):
    # no operation is reached: the vector is refused when it is built
    with pytest.raises(ValueError, match=re.escape(f"Witt component {named}, not")):
        build()


def _f3_poly():
    return MultiPoly.gen(("a",), "a", 3)


@pytest.mark.parametrize(
    "components,named",
    [
        (lambda: (_f3_poly(), _f3_poly().ring_zero()), "MultiPoly(a) has characteristic 3, not 2"),
        (lambda: (MultiPoly.gen(("a",), "a"), MultiPoly.zero(("a",))), "MultiPoly(a) has characteristic 0, not 2"),
        (
            lambda: (chart_from_key("3:E8:1").monomial(1, -1, -1, 1), chart_from_key("3:E8:1").monomial(0, 0, 0, 0)),
            "has characteristic 3, not 2",
        ),
        (lambda: (FpScalar(3, 1), FpScalar(3, 0)), "FpScalar(3, 1) has characteristic 3, not 2"),
        (
            lambda: (FpScalar(2, 1), MultiPoly.gen(("a",), "a", 2)),
            "FpScalar(2, 1) is an F_2 scalar, but other components are ring elements",
        ),
    ],
    ids=["f3-poly", "z-poly", "3-E8-1-element", "f3-scalar", "scalar-and-poly"],
)
def test_witt_vec_refuses_components_of_another_characteristic(components, named):
    """Such a vector used to be accepted, and witt_add of (a, 0) with itself gave (2a, a^2)."""
    with pytest.raises(ValueError, match="Witt component .*" + re.escape(named)):
        WittVec(2, components())


def test_teichmuller_refuses_an_empty_length():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"W_{n} at p=2 out of supported range"):
            teichmuller(FpScalar(2, 1), n)
    with pytest.raises(ValueError, match="W_5 at p=2"):
        teichmuller(FpScalar(2, 1), 5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: witt_add(WittVec(2, [1, 0]), WittVec(2, [1, 0])),
        lambda: witt_mul(WittVec(3, [2, 1]), fpvec(3, 2, 2)),
        lambda: witt_neg(WittVec(5, [FpScalar(5, 1), 3])),
    ],
    ids=["add-ints", "mul-int-and-scalar", "neg-mixed"],
)
def test_plain_int_components_are_refused(build):
    with pytest.raises(ValueError, match=r"Witt component \d is a plain int"):
        build()


@pytest.mark.parametrize(
    "components,named",
    [
        ([1, 0], "Witt component 1 is a plain int, not in an F_2-algebra"),
        ([FpScalar(2, 1), True], "Witt component True is a plain int"),
        ([Fraction(1, 2)], "Witt component Fraction(1, 2) is a Fraction"),
        ([FpScalar(2, 1), 0.5], "Witt component 0.5 is a float"),
        (["1"], "Witt component '1' is a str"),
    ],
    ids=["ints", "bool", "fraction", "float", "string"],
)
def test_witt_vec_refuses_components_outside_an_f_p_algebra(components, named):
    # ring_zero and the operations would otherwise fail later, with an AttributeError
    with pytest.raises(ValueError, match=re.escape(named)):
        WittVec(2, components)


@pytest.mark.parametrize("op", [witt_add, witt_mul, witt_sub])
@pytest.mark.parametrize("scalars_first", [True, False])
def test_a_vector_of_scalars_and_one_of_ring_elements_do_not_combine(op, scalars_first):
    """Each vector passes its own construction check; the mix is refused by the operation, naming both kinds."""
    scalars = fpvec(2, 1, 0)
    a = MultiPoly.gen(("a",), "a", 2)
    ring = chart_from_key("2:E8:0")
    for elems, kind in (((a, a), "MultiPoly"), ((ring.one(), ring.zero()), "ChartElem")):
        ring_vec = WittVec(2, elems)
        u, v = (scalars, ring_vec) if scalars_first else (ring_vec, scalars)
        kinds = ("F_2 scalars", f"{kind} elements") if scalars_first else (f"{kind} elements", "F_2 scalars")
        with pytest.raises(ValueError, match=f"^cannot combine a Witt vector of {kinds[0]} with one of {kinds[1]}$"):
            op(u, v)


@pytest.mark.parametrize("p", [2**61 - 1, 65537])
def test_derive_integer_polys_refuses_a_prime_over_the_bound_at_once(p):
    # 2^61 - 1 was trial-divided up to its square root: over 10 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^modulus must be a prime below 2\^16, got {p}$"):
        derive_integer_polys(p, 1, "add")
    assert time.perf_counter() - start < 0.5
