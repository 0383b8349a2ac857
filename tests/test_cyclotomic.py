import cmath
import random
from fractions import Fraction

import pytest

from arith_oracle import Ref, key
from superchar.cyclotomic import Cyclotomic, Packing, cyclotomic_polynomial, euler_phi


def zeta(order, k=1):
    """zeta_order^k."""
    return Cyclotomic(order, [0] * k + [1])


def test_basic_root_identities():
    i = zeta(4)
    assert i * i == -1
    z3 = zeta(3)
    assert z3 * z3 == zeta(3, 2) and Cyclotomic(3, [1, 1, 1]).is_zero()
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
    # a * conjugate(b), the summand of the Hermitian inner product
    assert i * i.conjugate() == 1
    a = Cyclotomic(3, [1, 1])
    assert a * a.conjugate() == 1
    zero = Cyclotomic(3, [])
    assert (zero * a.conjugate()).is_zero()


def test_order_lifting_and_equality():
    one2 = Cyclotomic.one(2)
    one4 = Cyclotomic.one(4)
    assert one2 == one4
    z4 = zeta(4)
    z8sq = zeta(8) * zeta(8)
    assert z4 == z8sq
    assert z4 * zeta(6, 3) == zeta(12, 9) and zeta(6, 3) == zeta(2)


def test_ring_axioms_on_random_values():
    rng = random.Random(7)

    def approx(v):
        tau = 2 * cmath.pi / v.order
        return sum(n / v.den * cmath.exp(1j * tau * k) for k, n in enumerate(v.num))

    def rand_coeffs(order):
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]

    for order in (3, 4, 6, 8, 12):
        for _ in range(15):
            ca, cb, cc = (rand_coeffs(order) for _ in range(3))
            a, b, c = (Cyclotomic(order, x) for x in (ca, cb, cc))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            # products distribute over sums of coordinates
            bc = Cyclotomic(order, [x + y for x, y in zip(cb, cc)])
            assert key(a * bc) == key((Ref.of(a * b) + Ref.of(a * c)).value())
            assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9


def test_conjugation_is_an_automorphism():
    rng = random.Random(11)
    for order in (5, 8, 12):
        for _ in range(10):
            ca = [rng.randint(-3, 3) for _ in range(order)]
            cb = [rng.randint(-3, 3) for _ in range(order)]
            a, b = Cyclotomic(order, ca), Cyclotomic(order, cb)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            ab = Cyclotomic(order, [x + y for x, y in zip(ca, cb)])
            assert ab.conjugate() == (Ref.of(a.conjugate()) + Ref.of(b.conjugate())).value()
            assert a.conjugate().conjugate() == a


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
    assert Cyclotomic.parse("-z", 4) == zeta(4, 3)
    assert Cyclotomic.parse("1 - z^2", 8) == Cyclotomic(8, [1, 0, -1])


def test_parse_rejects_garbage():
    for bad in ("", "z**2", "1 +", "q", "1//2", "1/0", "1-", "--1", "z-", "2*", "-", "*z"):
        with pytest.raises(ValueError):
            Cyclotomic.parse(bad, 4)


def test_rational_extraction():
    v = Cyclotomic.from_rational(Fraction(7, 2), 12)
    assert v.is_rational() and v.rational_value() == Fraction(7, 2)
    with pytest.raises(ValueError):
        v.integer_value()
    with pytest.raises(ValueError):
        zeta(8).rational_value()


# ---------------------------------------------------------------------------
# slow oracle: the integer normal form against plain Fraction coordinates


def _agree(v, r):
    return (
        v.order == r.order
        and [Fraction(n, v.den) for n in v.num] == list(r.coeffs)
        and str(v) == r.text()
    )


def test_integer_normal_form_against_fraction_reference():
    rng = random.Random(20251003)
    orders = (1, 4, 8, 12, 15, 32)

    def rand_pair(order=None):
        order = order or rng.choice(orders)
        den = rng.choice((1, 1, 2, 3, 6, 35))
        coeffs = [Fraction(rng.randint(-6, 6), den) for _ in range(rng.randint(1, order + 2))]
        return Cyclotomic(order, coeffs), Ref(order, coeffs)

    for _ in range(80):
        (v, r), (w, s) = rand_pair(), rand_pair()
        assert _agree(v, r) and _agree(w, s)
        assert _agree(v * w, r * s)
        assert _agree(v.conjugate(), r.conjugate())
        q = Fraction(rng.choice((-5, -2, 1, 3, 7)), rng.choice((1, 2, 9)))
        assert _agree(v * Cyclotomic.from_rational(q), r.scale(q))
        assert Cyclotomic.from_rational(q, 4) * v == r.scale(q).value()
        assert (v == w) == (r == s)
        # the same value reached along another path has the same normal form
        paths = (
            Cyclotomic(v.order, r.coeffs),
            v.conjugate().conjugate(),
            v * Cyclotomic.one(),
            v.lifted(2 * v.order).lowered(v.order),
        )
        for again in paths:
            assert again == v and key(again) == key(v)
        if v.order == w.order:
            assert (key(v) == key(w)) == (r == s)
        assert v.is_rational() == all(c == 0 for c in r.coeffs[1:])
        assert v.is_integral() == all(c.denominator == 1 for c in r.coeffs)
        if v.is_rational():
            assert v == r.coeffs[0] and v.rational_value() == r.coeffs[0]
        assert Cyclotomic.parse(str(v), v.order) == v


def test_equality_across_orders():
    # values are unhashable: key() is the hashable form, within one order
    with pytest.raises(TypeError):
        hash(Cyclotomic.one(4))
    assert zeta(12, 3) == zeta(4) and zeta(12, 2) == Cyclotomic(3, [0, 0, -1])
    rng = random.Random(12)
    orders = (1, 2, 4, 8, 12)
    for d in orders:
        for _ in range(40):
            v = Cyclotomic(d, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for e in orders:
                if e % d == 0:
                    w = v.lifted(e)
                    assert w == v and v == w and not w != v
    # the twelve 12th roots of unity are distinct values, whatever order holds them
    roots = [zeta(12, k) for k in range(12)]
    assert len({key(v) for v in roots}) == 12
    assert zeta(4, 1) == roots[3] and zeta(2, 1) == roots[6]


def test_only_values_multiply():
    # a rational enters a product as a value; ints and Fractions compare only
    v = Cyclotomic.from_rational(2, 4)
    for scalar in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            v * scalar
        with pytest.raises(TypeError):
            scalar * v
    assert v == 2 and v * Cyclotomic.from_rational(Fraction(1, 2)) == 1


def test_lowered_inverts_lifted():
    rng = random.Random(13)
    orders = (1, 2, 3, 4, 6, 8, 12, 24, 30)
    for d in orders:
        for _ in range(25):
            v = Cyclotomic(d, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for e in orders:
                if e % d == 0:
                    low = v.lifted(e).lowered(d)
                    assert key(low) == key(v)
                    # any order between d and e holds the value too
                    for m in orders:
                        if e % m == 0 and m % d == 0:
                            assert key(v.lifted(e).lowered(m)) == key(v.lifted(m))


def test_lowered_rejects_values_outside_the_subfield():
    with pytest.raises(ValueError, match="does not lie"):
        zeta(4).lowered(2)
    with pytest.raises(ValueError, match="does not lie"):
        zeta(12, 1).lowered(6)
    with pytest.raises(ValueError, match="cannot lower"):
        zeta(12).lowered(5)
    assert key(zeta(12, 4).lowered(3)) == key(zeta(3))
    assert key(zeta(12, 6).lowered(1)) == key(Cyclotomic.from_rational(-1))


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
        zero = Ref(order)
        for _ in range(8):
            n = rng.randint(1, 7)
            a = [rand_value(order) for _ in range(n)]
            b = [rand_value(order) for _ in range(n)]
            weights = [rng.randint(-6, 6) for _ in range(n)]
            weight = sum(map(abs, weights))
            linear = Packing(order, a, weight)
            got = linear.unpack(sum(w * linear.pack(x) for w, x in zip(weights, a)))
            expected = sum((Ref.of(x).scale(w) for w, x in zip(weights, a)), zero)
            assert key(got) == key(expected.value())
            # sum w a conj(b) against ints t, then with one more term that
            # takes away all but the int q, so that the sum is q
            products = sum(((Ref.of(x) * Ref.of(y).conjugate()).scale(w) for w, x, y in zip(weights, a, b)), zero)
            q = rng.randint(-20, 20)
            rest = (products + Ref(order, [-q])).value()
            pk = Packing(order, a + b + [rest, Cyclotomic.one(order)], weight + 1, target=21)
            total = sum(w * pk.pack(x) * pk.pack(y, True) for w, x, y in zip(weights, a, b))
            for t in (0, q, q + 1):
                assert pk.holds(total, t) == (products == Ref(order, [t]))
            total -= pk.pack(rest) * pk.pack(Cyclotomic.one(order), True)
            assert pk.holds(total, q) and not pk.holds(total, q + 1) and not pk.holds(total, q - 1)


def test_packed_sums_at_the_proven_bound():
    # all coordinates A and weights summing to W: a linear sum has every
    # coordinate at W*A, exactly the bound the width is taken from
    A, W = 7, 5
    for order in (1, 4, 12, 15, 32):
        phi = euler_phi(order)
        top, bottom = Cyclotomic(order, [A] * phi), Cyclotomic(order, [-A] * phi)
        assert top.num == (A,) * phi
        linear = Packing(order, [top, bottom], W)
        total = sum(linear.pack(top) for _ in range(W))
        assert key(linear.unpack(total)) == key(Cyclotomic(order, [W * A] * phi))
        assert key(linear.unpack(-total)) == key(Cyclotomic(order, [-W * A] * phi))
        # coordinate 0 of W top conj(top) is W phi A^2 before the reduction
        pk = Packing(order, [top, bottom], W, target=0)
        total = W * pk.pack(top) * pk.pack(top, True)
        norm = (Ref.of(top) * Ref.of(top).conjugate()).scale(W)
        for t in (0, W * phi * A * A, norm.coeffs[0]):
            assert pk.holds(total, t) == (norm == Ref(order, [t]))
            assert pk.holds(-total, -t) == (norm == Ref(order, [t]))


def test_gram_decision_at_the_bound_needs_its_last_bit():
    # in Q(zeta_1) = Q, Psi_1 = 1 and the sum itself is the one coefficient:
    # W A^2 + t = 2^6 - 1 is the bound, so the width is 7 bits and the
    # modulus 2^7 - 1; one bit fewer would make the modulus the bound and
    # read the sum -(W A^2 + t), which is not 0, as 0
    for A, W, t in ((3, 7, 0), (3, 5, 18), (1, 1, 62)):
        top, bottom = Cyclotomic.from_rational(A), Cyclotomic.from_rational(-A)
        pk = Packing(1, [top, bottom], W, target=t)
        assert W * A * A + t == 63 and pk.width == 7
        below = W * pk.pack(top) * pk.pack(bottom, True)
        assert below == -W * A * A
        assert not pk.holds(below, t) and not pk.holds(-below, -t)
        assert pk.holds(below + W * A * A)


def test_gram_decision_reads_zero_at_zeta_as_zero():
    # nonzero polynomials in x = 2^w that vanish at zeta_e read as 0, those
    # that do not as not 0, also past x^e, which the modulus folds back
    for e, poly, zero in (
        (3, [1, 1, 1], True),
        (4, [1, 0, 1], True),
        (4, [0, 1, 0, 1], True),
        (4, [0, 1, 0, 0, 0, 1], False),  # zeta + zeta^5 = 2 zeta
        (4, [1, 0, 0, 0, -1], True),  # 1 - zeta^4
        (6, [1, -1, 1], True),
        (12, [1, 0, -1, 0, 1], True),
        (5, [1, 1, 1, 1, 1], True),
        (4, [1, 1], False),
        (6, [1, 1, 1], False),
        (5, [1, 1, 1, 1], False),
    ):
        pk = Packing(e, [Cyclotomic.one(e)], len(poly), target=5)
        total = sum(c << pk.width * k for k, c in enumerate(poly))
        assert pk.holds(total) is zero and pk.holds(total + 5, 5) is zero
    # the same from packed products: 1 + zeta_3 + zeta_3^2, and
    # |zeta_4|^2 - 1, where x^4 meets the 1 only modulo 2^(4w) - 1
    one3, z3 = Cyclotomic.one(3), Cyclotomic(3, [0, 1])
    pk = Packing(3, [one3, z3], 3, target=0)
    pair = lambda a, b: pk.pack(a) * pk.pack(b, True)
    assert pk.holds(pair(one3, one3) + pair(z3, one3) + pair(one3, z3))
    z4 = Cyclotomic(4, [0, 1])
    pk = Packing(4, [Cyclotomic.one(4), z4], 1, target=1)
    assert pk.pack(z4) * pk.pack(z4, True) != 1 and pk.holds(pk.pack(z4) * pk.pack(z4, True), 1)


def test_comparison_with_rationals_matches_the_value_comparison():
    # ints and Fractions are compared with num[0] / den in place; the oracle
    # is the comparison with the same rational built as a value of any order
    rng = random.Random(19)
    rationals = [0, 1, -1, 2, True, False, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2), Fraction(0, 5)]
    values = [Cyclotomic.from_rational(q, e) for q in rationals for e in (1, 3, 4, 12)]
    values += [Cyclotomic(e, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, e))])
               for e in (1, 2, 3, 4, 6, 8, 12) for _ in range(30)]
    values += [zeta(4), zeta(8, 3), Cyclotomic(12, [Fraction(1, 2), 0, 0, 1])]  # not rational
    for v in values:
        for q in rationals:
            for e in (1, 2, v.order, 2 * v.order):  # the rational as a value of a lower, equal and higher order
                expected = v == Cyclotomic.from_rational(q, e)
                assert expected == (Cyclotomic.from_rational(q, e) == v)
                assert (v == q) is expected and (q == v) is expected
                assert (v != q) is (not expected) and (q != v) is (not expected)
        if not v.is_rational():
            assert all(v != q and q != v for q in rationals)
    assert Cyclotomic.from_rational(Fraction(-7, 3), 8) == Fraction(-14, 6) != Cyclotomic.from_rational(-2, 8)


def test_only_exact_numbers_and_values_compare_equal():
    # a float or any other object is never equal to a value, either way round
    v = Cyclotomic.from_rational(2, 4)
    for other in (2.0, 0.5 + 0j, "2", None, [2]):
        assert not v == other and v != other
        assert not other == v and other != v
    # values of different orders compare by the lcm of their orders
    half_i = Cyclotomic(4, [0, Fraction(1, 2)])
    assert half_i == Cyclotomic(12, [0, 0, 0, Fraction(1, 2)]) and Cyclotomic(12, [0, 0, 0, Fraction(1, 2)]) == half_i
    assert half_i != Cyclotomic(3, [0, 1]) and Cyclotomic(3, [0, 1]) != half_i
