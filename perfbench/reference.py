"""Reference values for the benchmark's correctness checks.

Nothing here imports rdpk3.  Finite fields, polynomials, point counts and
Witt vectors over F_p are re-implemented from their definitions, so that
a defect in the package cannot pass by agreeing with itself.
"""

import itertools
import random

# An irreducible polynomial of degree k over F_2 for each GF(2^k) used,
# as a bit mask whose bit i is the coefficient of x^i.
GF2_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def gf2k_mul_table(q):
    """Multiplication table of GF(q), q = 2^k, elements as bit masks."""
    k = q.bit_length() - 1
    if q != 1 << k or k not in GF2_MODULI:
        raise ValueError(f"no reference field of order {q}")
    mod = GF2_MODULI[k]

    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & q:
                a ^= mod
        return r

    return [[mul(a, b) for b in range(q)] for a in range(q)]


def parse_f2_poly(text, variables):
    """Monomials (exponent tuples) of a polynomial over F_2 in CLI syntax.

    Accepts sums of terms, each a product of an optional integer
    coefficient and factors v or v^e; coefficients are taken mod 2.
    """
    coeffs = {}
    for term in text.split("+"):
        coeff = 1
        exps = [0] * len(variables)
        for factor in term.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            exps[variables.index(name.strip())] += int(e) if e else 1
        key = tuple(exps)
        coeffs[key] = (coeffs.get(key, 0) + coeff) % 2
    return [m for m, c in coeffs.items() if c]


def affine_solutions(monomials, nvars, q):
    """Number of zeros in GF(q)^nvars of a polynomial over F_2."""
    mul = gf2k_mul_table(q)
    top = max((e for m in monomials for e in m), default=0)
    powers = []
    for a in range(q):
        row = [1]
        for _ in range(top):
            row.append(mul[row[-1]][a])
        powers.append(row)
    zeros = 0
    for point in itertools.product(range(q), repeat=nvars):
        value = 0
        for mono in monomials:
            t = 1
            for a, e in zip(point, mono):
                if e:
                    t = mul[t][powers[a][e]]
            value ^= t
        zeros += value == 0
    return zeros


def two_chart_count(chart1, chart2, q):
    """#X(F_q) of a two-chart model: both affine charts plus the zero section.

    chart1 and chart2 are (text, variables) pairs with three and two
    variables respectively.
    """
    (text1, vars1), (text2, vars2) = chart1, chart2
    return (
        affine_solutions(parse_f2_poly(text1, vars1), 3, q)
        + affine_solutions(parse_f2_poly(text2, vars2), 2, q)
        + q
        + 1
    )


def weighted_count(text, variables, q):
    """#X(F_q) of a weighted hypersurface: nonzero cone solutions / (q - 1).

    Each rational point of the coarse space is a G_m-orbit with exactly
    q - 1 rational points (Hilbert 90), whatever the weights.
    """
    monomials = parse_f2_poly(text, variables)
    cone = affine_solutions(monomials, len(variables), q)
    if not any(not any(m) for m in monomials):
        cone -= 1  # the origin
    if cone % (q - 1):
        raise ArithmeticError(f"{cone} cone points are not a union of G_m-orbits")
    return cone // (q - 1)


def _f2_product(a, b):
    """Product of two polynomials over F_2 given as sets of exponent tuples."""
    out = set()
    for x in a:
        for y in b:
            out ^= {tuple(i + j for i, j in zip(x, y))}
    return out


def _f2_text(monomials, variables):
    terms = []
    for mono in sorted(monomials, reverse=True):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mono) if e]
        terms.append("*".join(factors) or "1")
    return " + ".join(terms)


def random_two_chart_texts(rng):
    """A random small model y^2 + B*y + C over F_2, as chart texts.

    Returns (chart1 text in x, y, t; chart2 text in x, y).  B is often
    divisible by t, t + 1 or t^2 + t, so that it vanishes on whole
    fibres, and sometimes zero.
    """
    xt = [(i, 0, j) for i in range(2) for j in range(4)]
    b_core = {m for m in xt if rng.random() < 0.4} or {(1, 0, 0)}
    fibre_factor = rng.choice(
        [{(0, 0, 0)}, {(0, 0, 1)}, {(0, 0, 1), (0, 0, 0)}, {(0, 0, 2), (0, 0, 1)}, set()]
    )
    b = _f2_product(b_core, fibre_factor)
    c = {(3, 0, 0)} ^ {(i, 0, j) for i in range(3) for j in range(6) if rng.random() < 0.25}
    chart1 = {(0, 2, 0)} | _f2_product(b, {(0, 1, 0)}) | c
    b2 = {m for m in ((1, 0), (0, 0)) if rng.random() < 0.5}
    c2 = {(3, 0)} | {(i, 0) for i in range(3) if rng.random() < 0.5}
    chart2 = {(0, 2)} | {(i, 1) for i, _ in b2} | c2
    return _f2_text(chart1, ("x", "y", "t")), _f2_text(chart2, ("x", "y"))


def witt_to_int(p, digits):
    """The image of (a_0, ..., a_{n-1}) in W_n(F_p) = Z/p^n.

    On W(F_p) Frobenius is the identity, so V is multiplication by p and
    the vector is sum_i p^i [a_i], with the Teichmuller lift
    [a] = a^(p^(n-1)) mod p^n.
    """
    n = len(digits)
    m = p**n
    return sum(p**i * pow(a, p ** (n - 1), m) for i, a in enumerate(digits)) % m


def random_witt_pairs(seed, p, n, count):
    """Seeded pairs of digit vectors in F_p^n."""
    rng = random.Random(f"{seed}:witt-oracle:{p}:{n}")
    for _ in range(count):
        yield (
            tuple(rng.randrange(p) for _ in range(n)),
            tuple(rng.randrange(p) for _ in range(n)),
        )
