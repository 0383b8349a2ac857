"""Exact arithmetic in the cyclotomic fields Q(zeta_e).

A value of order e is stored by its coordinates in the power basis
{zeta_e^k : 0 <= k < phi(e)}, reduced modulo the e-th cyclotomic
polynomial, as an integer numerator vector `num` over one positive common
denominator `den`, with gcd(den, *num) == 1.  That pair is a normal form,
so equality and zero tests are exact tuple comparisons.  Character values
are algebraic integers and have den == 1, so sums, products and
conjugates of them run on ints alone; `Fraction` appears only at the
edges: rational construction and extraction, division by a rational, and
the display and JSON forms.  No floating arithmetic enters any logic path.
Values of different orders are lifted to the lcm order before they are
combined.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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


def _lower(e: int, num: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    # The coordinates in Q(zeta_(e/p)) of num in Q(zeta_e), or None when the
    # value does not lie in that subfield; p is a prime factor of e.
    m = e // p
    if m % p == 0:
        # Phi_e(x) = Phi_m(x^p): the subfield holds exactly the powers zeta_e^(pk)
        return None if any(num[k] for k in range(len(num)) if k % p) else num[::p]
    # zeta_e^k = zeta_p^u zeta_m^v by the Chinese remainder theorem, so the
    # value is sum_u zeta_p^u c_u with c_u in Q(zeta_m); since the zeta_p^u,
    # u >= 1, are a basis over Q(zeta_m) and sum to -1, it lies in Q(zeta_m)
    # exactly when every c_u - c_0 (u >= 1) is equal, and then it is c_0 - c_1
    up, vp = pow(m, -1, p), pow(p, -1, m)
    dense = [[0] * m for _ in range(p)]
    for k, c in enumerate(num):
        dense[k * up % p][k * vp % m] += c
    c0, *rest = (_reduce(d, m) for d in dense)
    diffs = {tuple(a - b for a, b in zip(cu, c0)) for cu in rest}
    return tuple(-x for x in diffs.pop()) if len(diffs) == 1 else None


def _lowest_order(e: int, num: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # (f, coordinates) in the smallest Q(zeta_f) that holds the value; f
    # divides every order that holds it, so the pair depends on the value only.
    # A prime that fails once fails for every later, smaller order too.
    p = 2
    while p <= e:
        low = _lower(e, num, p) if e % p == 0 and all(p % r for r in range(2, p)) else None
        if low is None:
            p += 1
        else:
            e, num = e // p, low
    return e, num


_TERM_RE = re.compile(r"^(?P<coef>-?\d+(?:/\d+)?)?(?P<star>\*)?(?P<z>z(?:\^(?P<exp>\d+))?)?$")


class Cyclotomic:
    """An exact element of Q(zeta_order): num / den in the reduced power basis."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """sum_k coeffs[k] * zeta_order^k, for int or rational coefficients."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        dense = [0] * order
        for k, c in enumerate(coeffs):
            dense[k % order] += c.numerator * (den // c.denominator)
        self.order = order
        self.num, self.den = _lowest(_reduce(dense, order), den)

    # construction

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclotomic":
        q = Fraction(value)
        return _value(order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclotomic":
        return _value(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> "Cyclotomic":
        return cls.from_rational(1, order)

    @classmethod
    def root(cls, order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        k %= order
        return _value(order, _reduce([0] * k + [1], order))

    # coercion helpers

    @staticmethod
    def _coerce(value, order: int) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value, order)
        return NotImplemented  # type: ignore[return-value]

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

    def _pair(self, other):
        other = self._coerce(other, self.order)
        if other is NotImplemented:
            return None, None
        if other.order == self.order:
            return self, other
        e = lcm(self.order, other.order)
        return self.lifted(e), other.lifted(e)

    # arithmetic

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.den == b.den:
            return _value(a.order, tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        da, db = a.den, b.den
        return _value(a.order, tuple(x * db + y * da for x, y in zip(a.num, b.num)), da * db)

    __radd__ = __add__

    def __neg__(self):
        return _value(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _value(self.order, tuple(c * other for c in self.num), self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return _value(self.order, tuple(c * n for c in self.num), self.den * other.denominator)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        nb = b.num
        out = [0] * (len(a.num) + len(nb) - 1)
        for i, ai in enumerate(a.num):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        out[i + j] += ai * bj
        return _value(a.order, _reduce(out, a.order), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic) and other.is_rational():
            other = other.rational_value()
        if not isinstance(other, (int, Fraction)):
            raise TypeError("division is only supported by nonzero rationals")
        if not other:
            raise ZeroDivisionError("division by zero")
        n, d = other.numerator, other.denominator
        if n < 0:
            n, d = -n, -d
        return _value(self.order, tuple(c * d for c in self.num), self.den * n)

    # Galois action

    def galois(self, t: int) -> "Cyclotomic":
        """Image under zeta |-> zeta^t, for t coprime to the order."""
        e = self.order
        t %= e
        if gcd(t, e) != 1:
            raise ValueError(f"{t} is not invertible modulo {e}")
        dense = [0] * e
        for k, c in enumerate(self.num):
            if c:
                dense[(k * t) % e] += c
        return _value(e, _reduce(dense, e), self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate (zeta |-> zeta^-1)."""
        return self.galois(self.order - 1) if self.order > 1 else self

    # predicates and extraction

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        """True when every power-basis coordinate is an integer."""
        return self.den == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def integer_value(self) -> int:
        q = self.rational_value()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    def key(self) -> tuple:
        """Hashable canonical key; comparable within a fixed order."""
        return (self.order, self.num, self.den)

    def __hash__(self):
        # equal values of different orders must hash alike, so hash the value
        # in the smallest cyclotomic field that holds it
        return hash((_lowest_order(self.order, self.num), self.den))

    # display / serialization / numerics

    def _coeffs(self) -> list:
        # the power-basis coordinates as ints (den == 1) or Fractions
        if self.den == 1:
            return list(self.num)
        return [Fraction(n, self.den) for n in self.num]

    def approx(self) -> complex:
        """Floating approximation; for display and sanity checks only."""
        tau = 2 * cmath.pi / self.order
        return sum(n / self.den * cmath.exp(1j * tau * k) for k, n in enumerate(self.num))

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
        dense = [Fraction(0)] * order
        for token in s.split("+"):
            if not token:
                raise ValueError(f"malformed cyclotomic literal: {text!r}")
            m = _TERM_RE.match(token)
            if not m or (m.group("coef") is None and m.group("z") is None):
                # allow a bare "-z^k"
                if token.startswith("-") and _TERM_RE.match(token[1:]):
                    m = _TERM_RE.match(token[1:])
                    sign = -1
                else:
                    raise ValueError(f"malformed term {token!r} in {text!r}")
            else:
                sign = 1
            coef = m.group("coef")
            c = Fraction(coef) if coef is not None else Fraction(1)
            k = int(m.group("exp") or 1) if m.group("z") else 0
            dense[k % order] += sign * c
        return cls(order, dense)

    def to_json(self):
        return {"order": self.order, "coeffs": [str(c) for c in self._coeffs()]}

    @classmethod
    def from_json(cls, payload) -> "Cyclotomic":
        order = int(payload["order"])
        coeffs = [Fraction(c) for c in payload["coeffs"]]
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has the wrong length")
        return cls(order, coeffs)


def hermitian_term(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a * conjugate(b), the summand of the Hermitian inner product."""
    return a * b.conjugate()
