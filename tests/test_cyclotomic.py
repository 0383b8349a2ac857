import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from superchar.cyclotomic import (
    Cyclotomic,
    Packing,
    cyclotomic_polynomial,
    euler_phi,
    hermitian_term,
)


def zeta(order, k=1):
    """zeta_order^k."""
    return Cyclotomic(order, [0] * k + [1])


def test_basic_root_identities():
    i = zeta(4)
    assert i * i == -1
    z3 = zeta(3)
    assert (1 + z3 + z3 * z3).is_zero()
    z8 = zeta(8)
    assert z8.conjugate() == zeta(8, 7)
    assert zeta(6, 3) == -1
    assert zeta(5, 7) == zeta(5, 2)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for e in range(1, 30):
        assert len(cyclotomic_polynomial(e)) == euler_phi(e) + 1


def test_hermitian_term_examples():
    i = zeta(4)
    assert hermitian_term(i, i) == 1
    a = 1 + zeta(3)
    assert hermitian_term(a, a) == 1
    zero = Cyclotomic.zero(3)
    assert hermitian_term(zero, a).is_zero()


def test_order_lifting_and_equality():
    one2 = Cyclotomic.one(2)
    one4 = Cyclotomic.one(4)
    assert one2 == one4
    z4 = zeta(4)
    z8sq = zeta(8) * zeta(8)
    assert z4 == z8sq
    assert z4 + zeta(6, 3) == z4 - 1


def test_ring_axioms_on_random_values():
    rng = random.Random(7)

    def approx(v):
        tau = 2 * cmath.pi / v.order
        return sum(n / v.den * cmath.exp(1j * tau * k) for k, n in enumerate(v.num))

    def rand_value(order):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]
        return Cyclotomic(order, coeffs)

    for order in (3, 4, 6, 8, 12):
        for _ in range(15):
            a, b, c = (rand_value(order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert (a - a).is_zero()
            assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9


def test_conjugation_is_an_automorphism():
    rng = random.Random(11)
    for order in (5, 8, 12):
        for _ in range(10):
            a = Cyclotomic(order, [rng.randint(-3, 3) for _ in range(order)])
            b = Cyclotomic(order, [rng.randint(-3, 3) for _ in range(order)])
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert a.conjugate().conjugate() == a


def test_galois_requires_coprime_exponent():
    z6 = zeta(6)
    with pytest.raises(ValueError):
        z6.galois(2)
    assert z6.galois(5) == z6.conjugate()


def test_display_and_parse_round_trip():
    rng = random.Random(3)
    for order in (1, 2, 4, 6, 8, 12):
        for _ in range(20):
            v = Cyclotomic(
                order,
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)],
            )
            assert Cyclotomic.parse(str(v), order) == v
    assert Cyclotomic.parse("0", 4).is_zero()
    assert Cyclotomic.parse("-z", 4) == -zeta(4)
    assert Cyclotomic.parse("1 - z^2", 8) == 1 - zeta(8, 2)


def test_parse_rejects_garbage():
    for bad in ("", "z**2", "1 +", "q", "1//2"):
        with pytest.raises(ValueError):
            Cyclotomic.parse(bad, 4)


def test_rational_extraction():
    v = Cyclotomic.from_rational(Fraction(7, 2), 12)
    assert v.is_rational() and v.rational_value() == Fraction(7, 2)
    with pytest.raises(ValueError):
        v.integer_value()
    with pytest.raises(ValueError):
        zeta(8).rational_value()


def test_division_by_rationals():
    z = zeta(4)
    assert (z + z) / 2 == z
    assert z / Fraction(1, 3) == 3 * z
    with pytest.raises(TypeError):
        z / z


# ---------------------------------------------------------------------------
# slow oracle: the integer normal form against plain Fraction coordinates


def _ref_reduce(dense, e):
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    poly = list(dense) + [Fraction(0)] * max(0, phi - len(dense))
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, cj in enumerate(cyc):
                poly[k - phi + j] -= c * cj
    return tuple(poly[:phi])


class _Ref:
    """A value of Q(zeta_order) as a tuple of Fraction power-basis coordinates."""

    def __init__(self, order, dense):
        self.order = order
        folded = [Fraction(0)] * order
        for k, c in enumerate(dense):
            folded[k % order] += Fraction(c)
        self.coeffs = _ref_reduce(folded, order)

    def lift(self, e):
        dense = [Fraction(0)] * e
        for k, c in enumerate(self.coeffs):
            dense[k * (e // self.order)] += c
        return _Ref(e, dense)

    def pair(self, other):
        e = self.order * other.order // gcd(self.order, other.order)
        return self.lift(e), other.lift(e)

    def __add__(self, other):
        a, b = self.pair(other)
        return _Ref(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self.pair(other)
        return _Ref(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self.pair(other)
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                if x and y:
                    out[i + j] += x * y
        return _Ref(a.order, out)

    def scale(self, q):
        return _Ref(self.order, [c * q for c in self.coeffs])

    def galois(self, t):
        dense = [Fraction(0)] * self.order
        for k, c in enumerate(self.coeffs):
            dense[k * t % self.order] += c
        return _Ref(self.order, dense)

    def __eq__(self, other):
        a, b = self.pair(other)
        return a.coeffs == b.coeffs

    def text(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            z = "z" if k == 1 else f"z^{k}"
            if k == 0:
                terms.append(str(c))
            elif abs(c) == 1:
                terms.append(("-" if c < 0 else "") + z)
            else:
                terms.append(f"{c}*{z}")
        out = terms[0] if terms else "0"
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


def _agree(v, r):
    return (
        v.order == r.order
        and v.to_json() == {"order": r.order, "coeffs": [str(c) for c in r.coeffs]}
        and str(v) == r.text()
    )


def test_integer_normal_form_against_fraction_reference():
    rng = random.Random(20251003)
    orders = (1, 4, 8, 12, 15, 32)

    def rand_pair(order=None):
        order = order or rng.choice(orders)
        den = rng.choice((1, 1, 2, 3, 6, 35))
        coeffs = [Fraction(rng.randint(-6, 6), den) for _ in range(rng.randint(1, order + 2))]
        return Cyclotomic(order, coeffs), _Ref(order, coeffs)

    for _ in range(80):
        (v, r), (w, s) = rand_pair(), rand_pair()
        u, _ = rand_pair(v.order)
        assert _agree(v, r) and _agree(w, s)
        assert _agree(v + w, r + s)
        assert _agree(v - w, r - s)
        assert _agree(v * w, r * s)
        assert _agree(-v, r.scale(-1))
        assert _agree(v.conjugate(), r.galois(-1 % r.order))
        t = rng.choice([t for t in range(1, 2 * v.order + 1) if gcd(t, v.order) == 1])
        assert _agree(v.galois(t), r.galois(t % r.order))
        q = Fraction(rng.choice((-5, -2, 1, 3, 7)), rng.choice((1, 2, 9)))
        assert _agree(v / q, r.scale(1 / q))
        assert (v / q).key() == (v * (1 / q)).key() and v / q == v * (1 / q)
        assert _agree(v / Cyclotomic.from_rational(q, 4), r.scale(1 / q))
        assert _agree(v * q, r.scale(q))
        assert (v == w) == (r == s)
        # the same value reached along another path has the same normal form
        again = (v + u) - u
        assert again == v and again.key() == v.key() and hash(again) == hash(v)
        if v.order == w.order:
            assert (v.key() == w.key()) == (r == s)
        assert v.is_rational() == all(c == 0 for c in r.coeffs[1:])
        assert v.is_integral() == all(c.denominator == 1 for c in r.coeffs)
        if v.is_rational():
            assert v == r.coeffs[0] and v.rational_value() == r.coeffs[0]
        assert Cyclotomic.parse(str(v), v.order) == v


def test_hash_agrees_with_equality_across_orders():
    assert Cyclotomic.one(4) in {Cyclotomic.one(2)}
    assert hash(zeta(12, 3)) == hash(zeta(4))
    assert hash(zeta(12, 2)) == hash(-zeta(3, 2))
    rng = random.Random(12)
    orders = (1, 2, 4, 8, 12)
    for d in orders:
        for _ in range(40):
            v = Cyclotomic(d, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for e in orders:
                if e % d == 0:
                    w = v.lifted(e)
                    assert w == v and hash(w) == hash(v) and w in {v}
    # the twelve 12th roots of unity are distinct values, whatever order holds them
    roots = {zeta(12, k) for k in range(12)}
    assert len(roots) == 12 and zeta(4, 1) in roots and zeta(2, 1) in roots


def test_lowered_inverts_lifted():
    rng = random.Random(13)
    orders = (1, 2, 3, 4, 6, 8, 12, 24, 30)
    for d in orders:
        for _ in range(25):
            v = Cyclotomic(d, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for e in orders:
                if e % d == 0:
                    low = v.lifted(e).lowered(d)
                    assert low.key() == v.key()
                    # any order between d and e holds the value too
                    for m in orders:
                        if e % m == 0 and m % d == 0:
                            assert v.lifted(e).lowered(m).key() == v.lifted(m).key()


def test_lowered_rejects_values_outside_the_subfield():
    with pytest.raises(ValueError, match="does not lie"):
        zeta(4).lowered(2)
    with pytest.raises(ValueError, match="does not lie"):
        zeta(12, 1).lowered(6)
    with pytest.raises(ValueError, match="cannot lower"):
        zeta(12).lowered(5)
    assert zeta(12, 4).lowered(3).key() == zeta(3).key()
    assert zeta(12, 6).lowered(1).key() == Cyclotomic.from_rational(-1).key()


# ---------------------------------------------------------------------------
# the packed sums against object arithmetic


def test_packed_sums_match_object_arithmetic():
    rng = random.Random(20261018)

    def rand_value(order):
        # a value of a random divisor order, lifted when packed
        d = rng.choice([d for d in range(1, order + 1) if order % d == 0])
        den = rng.choice((1, 1, 2, 3, 10))
        return Cyclotomic(d, [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(1, d + 2))])

    for order in (1, 2, 4, 8, 12, 15, 32):
        zero = Cyclotomic.zero(order)
        for _ in range(8):
            n = rng.randint(1, 7)
            a = [rand_value(order) for _ in range(n)]
            b = [rand_value(order).conjugate() for _ in range(n)]
            weights = [rng.randint(-6, 6) for _ in range(n)]
            weight = sum(map(abs, weights))
            linear = Packing(order, a, weight)
            got = linear.unpack(sum(w * linear.pack(x) for w, x in zip(weights, a)))
            assert got.key() == sum((w * x for w, x in zip(weights, a)), zero).key()
            products = Packing(order, a + b, weight, products=True)
            got = products.unpack(
                sum(w * products.pack(x) * products.pack(y) for w, x, y in zip(weights, a, b))
            )
            assert got.key() == sum((w * (x * y) for w, x, y in zip(weights, a, b)), zero).key()


def test_packed_sums_at_the_proven_bound():
    # all coordinates A and weights summing to W: a linear sum has every
    # coordinate at W*A, and coordinate phi-1 of a product sum sits at
    # W*phi*A^2, exactly the bound the width is taken from
    A, W = 7, 5
    for order in (1, 4, 12, 15, 32):
        top = Cyclotomic(order, [A] * euler_phi(order))
        assert top.num == (A,) * euler_phi(order)
        linear = Packing(order, [top, -top], W)
        total = sum(linear.pack(top) for _ in range(W))
        assert linear.unpack(total).key() == (W * top).key()
        assert linear.unpack(-total).key() == (-W * top).key()
        products = Packing(order, [top, -top], W, products=True)
        total = W * products.pack(top) * products.pack(top)
        assert products.unpack(total).key() == (W * (top * top)).key()
        assert products.unpack(-total).key() == (-W * (top * top)).key()
