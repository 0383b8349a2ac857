"""Exact arithmetic in the cyclotomic fields Q(zeta_e).

A value of order e is stored by its coordinates in the power basis
{zeta_e^k : 0 <= k < phi(e)}, reduced modulo the e-th cyclotomic
polynomial, as an integer numerator vector `num` over one positive common
denominator `den`, with gcd(den, *num) == 1.  That pair is a normal form,
so equality and zero tests are exact tuple comparisons.  Character values
are algebraic integers and have den == 1, so products and conjugates of
them run on ints alone; `Fraction` appears only at the edges: a non-int
coefficient or rational, `rational_value`, the text form of a value with
den > 1 and `parse`.  `_fraction` imports `fractions` (and so `decimal`)
when one of them first needs it, so a run on character values never
loads either; comparison with a rational needs no `Fraction`.  No floating
arithmetic enters any logic path.  Values of different orders are lifted
to the lcm order before they are multiplied or compared; no value is ever
moved down to a subfield, so an inflated table keeps its parent's order.

Exact sums run only on `Packing`: a value becomes one int whose base-2^w
digits are its coordinates (Kronecker substitution).  A weighted sum of
values is read back from its digits, one object for each equal sum (the
packing's memo, freed with the packing); a weighted sum of products
a conj(b) is decided against an int with no value built, by one product
with Psi_e(2^w) modulo 2^(we) - 1.  A proven bound on every digit sets w,
and no float enters.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational
from operator import lshift


def _fraction(*args) -> Rational:
    from fractions import Fraction  # imported here: a run on character values never needs it

    return Fraction(*args)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; the division is known to be exact.
    num = list(num)
    dn = len(den) - 1
    q = [0] * (len(num) - dn)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + dn]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of the e-th cyclotomic polynomial, ascending."""
    if e < 1:
        raise ValueError("cyclotomic_polynomial requires e >= 1")
    if e == 1:
        return (-1, 1)
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reducer(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    return phi, tuple((j, c) for j, c in enumerate(cyc[:phi]) if c)


def _reduce(dense, e: int) -> tuple[int, ...]:
    # Remainder modulo the (monic, integral) e-th cyclotomic polynomial.
    phi, terms = _reducer(e)
    if len(dense) <= phi:
        return tuple(dense) + (0,) * (phi - len(dense))
    poly = list(dense)
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            base = k - phi
            for j, cj in terms:
                poly[base + j] -= c * cj
    return tuple(poly[:phi])


def _lowest(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    g = gcd(den, *num)
    return (num, den) if g == 1 else (tuple(x // g for x in num), den // g)


def _value(order: int, num: tuple[int, ...], den: int = 1) -> "Cyclotomic":
    # num is reduced and den > 0; stores num/den in lowest terms.
    if den != 1:
        num, den = _lowest(num, den)
    v = object.__new__(Cyclotomic)
    v.order, v.num, v.den = order, num, den
    return v


# an unsigned term: a coefficient, a power of z, or both joined by `*`
_TERM_RE = re.compile(r"^(?:(?P<coef>\d+(?:/\d*[1-9]\d*)?)(?:\*(?=z))?)?(?P<z>z(?:\^(?P<exp>\d+))?)?$")


class Cyclotomic:
    """An exact element of Q(zeta_order): num / den in the reduced power basis."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """sum_k coeffs[k] * zeta_order^k, for int or rational coefficients."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [c if isinstance(c, int) else _fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        dense = [0] * order
        for k, c in enumerate(coeffs):
            dense[k % order] += c.numerator * (den // c.denominator)
        self.order = order
        self.num, self.den = _lowest(_reduce(dense, order), den)

    # construction

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclotomic":
        q = value if isinstance(value, int) else _fraction(value)
        return _value(order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    @classmethod
    def one(cls, order: int = 1) -> "Cyclotomic":
        return cls.from_rational(1, order)

    def lifted(self, new_order: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_new_order); requires order | new_order."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"cannot lift order {self.order} into order {new_order}")
        step = new_order // self.order
        dense = [0] * new_order
        for k, c in enumerate(self.num):
            dense[k * step] = c
        return _value(new_order, _reduce(dense, new_order), self.den)

    def _pair(self, other: "Cyclotomic"):
        if other.order == self.order:
            return self, other
        e = lcm(self.order, other.order)
        return self.lifted(e), other.lifted(e)

    # arithmetic

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        nb = b.num
        out = [0] * (len(a.num) + len(nb) - 1)
        for i, ai in enumerate(a.num):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        out[i + j] += ai * bj
        return _value(a.order, _reduce(out, a.order), a.den * b.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate (zeta |-> zeta^-1)."""
        e = self.order
        dense = [0] * e
        for k, c in enumerate(self.num):
            if c:
                dense[-k % e] += c
        return _value(e, _reduce(dense, e), self.den)

    # predicates and extraction

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        """True when every power-basis coordinate is an integer."""
        return self.den == 1

    def rational_value(self) -> Rational:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return _fraction(self.num[0], self.den)

    def integer_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        if self.den != 1:
            raise ValueError(f"{self} is not an integer")
        return self.num[0]

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):  # first: the Rational ABC's isinstance check is slower
            a, b = self._pair(other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Rational)):  # against num[0] / den, with no value built
            return self.num[0] * other.denominator == other.numerator * self.den and not any(self.num[1:])
        return NotImplemented

    def __bool__(self) -> bool:
        return not self.is_zero()

    # display / serialization

    def _coeffs(self) -> list:
        # the power-basis coordinates as ints (den == 1) or Fractions
        if self.den == 1:
            return list(self.num)
        return [_fraction(n, self.den) for n in self.num]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self._coeffs()):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append("-" + z)
                else:
                    parts.append(f"{c}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {self})"

    @classmethod
    def parse(cls, text: str, order: int) -> "Cyclotomic":
        """Parse the display form (`z` stands for zeta_order)."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty cyclotomic literal")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        dense = [0] * order
        for token in s.split("+"):
            sign, term = (-1, token[1:]) if token.startswith("-") else (1, token)
            m = _TERM_RE.match(term)
            if not term or not m:
                raise ValueError(f"malformed term {token!r} in {text!r}")
            coef = m.group("coef")
            c = _fraction(coef) if coef is not None else 1
            k = int(m.group("exp") or 1) if m.group("z") else 0
            dense[k % order] += sign * c
        return cls(order, dense)


class Packing:
    """Values of Q(zeta_e), e = order, as ints, for exact weighted sums of
    values or, with a `target`, exact decisions on sums of products.

    Let f_v = sum_k c_k x^k over the coordinates c_k of v scaled to the
    common denominator D of `values`, which must hold every value to be
    packed, and A the largest |c_k|.  `pack(v)` is f_v(2^w).
    `unpack(total, d)` reads a sum of packed ints with int weights, of
    |weights| summing to at most `weight`, back as its exact value divided
    by the positive int d.  Every coordinate of such a sum is at most the
    bound weight A; w = bit_length(bound) + 1 puts each in (-2^(w-1),
    2^(w-1)), so adding 2^(w-1) to every digit leaves no carry.

    With a target, `pack(v, True)` is g_v(2^w), g_v = sum_k c_k x^(-k mod
    e), which is D conj(v) at x = zeta_e, and `holds(s, t)` decides sum_i
    c_i a_i conj(b_i) = t for s = sum_i c_i pack(a_i) pack(b_i, True), int
    weights c_i with sum |c_i| <= weight and an int |t| <= target.  Let M =
    2^(we) - 1 and Psi_e = (x^e - 1) / Phi_e.  s - t D^2 = F(2^w) for an
    int polynomial F with F(zeta_e) = D^2 (sum - t), and as 2^(we) = 1
    modulo M it is R(2^w) with R = F mod x^e - 1.  The sum is t exactly
    when Phi_e | R, so when U = Psi_e R mod x^e - 1 is 0, and U(2^w) =
    (s - t D^2) Psi_e(2^w) modulo M.  The exponents of g_b are distinct mod
    e, so a coefficient of f_a g_b mod x^e - 1 sums at most phi(e)
    products: every coefficient of R is at most weight phi A^2 + target
    D^2 and every one of U at most the bound ||Psi_e||_1 times that.  Then
    |U(2^w)| < 2^(w-1) (2^(we) - 1) / (2^w - 1) < M, so U(2^w) is 0 modulo
    M only when it is 0, which with digits in (-2^(w-1), 2^(w-1)) is U = 0.
    """

    __slots__ = ("order", "width", "_den", "_digits", "_conjugate_digits", "_offset", "_half", "_mask",
                 "_modulus", "_psi", "_read")

    def __init__(self, order: int, values, weight: int, target: int | None = None):
        values = [v.lifted(order) for v in values]
        phi = euler_phi(order)
        self._den = den = lcm(1, *(v.den for v in values))
        top = max((abs(c) * (den // v.den) for v in values for c in v.num), default=0)
        psi = _poly_div_exact([-1] + [0] * (order - 1) + [1], cyclotomic_polynomial(order))
        bound = weight * top if target is None else sum(map(abs, psi)) * (weight * phi * top**2 + target * den**2)
        w = self.width = bound.bit_length() + 1
        self.order = order
        self._digits = range(0, w * phi, w)
        self._conjugate_digits = [w * (-k % order) for k in range(phi)]
        self._half, self._mask = 1 << (w - 1), (1 << w) - 1
        self._offset = sum(self._half << s for s in self._digits)
        self._modulus = (1 << w * order) - 1
        self._psi = sum(c << w * j for j, c in enumerate(psi)) % self._modulus
        self._read: dict[tuple[int, int], Cyclotomic] = {}

    def pack(self, v: Cyclotomic, conjugate: bool = False) -> int:
        v = v.lifted(self.order)
        return self._den // v.den * sum(map(lshift, v.num, self._conjugate_digits if conjugate else self._digits))

    def unpack(self, total: int, divisor: int = 1) -> Cyclotomic:
        """The value total / divisor (see the class docstring).  An equal
        (total, divisor) gets the object already built for it: values are
        immutable, and the memo is the packing's, freed with it, so a table's
        packing holds each number its sums reach once."""
        key = total, divisor
        v = self._read.get(key)
        if v is None:
            total += self._offset
            mask, half = self._mask, self._half
            dense = [(total >> s & mask) - half for s in self._digits]
            v = self._read[key] = _value(self.order, _reduce(dense, self.order), self._den * divisor)
        return v

    def holds(self, total: int, t: int = 0) -> bool:
        return (total - t * self._den ** 2) * self._psi % self._modulus == 0
