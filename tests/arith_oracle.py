"""Test-only oracle: the exact sums of the package on plain Fraction coordinates.

The orthogonality relations of `validate_table`, sigma_X on the classes,
the central-character keys of a derivation and both supercharacter
orthogonality relations, summed term by term on `Ref`, a field arithmetic
that shares no code with `superchar.cyclotomic` beyond the cyclotomic
polynomial.  Each result is converted with `Cyclotomic(order, coeffs)` only
to be compared with the package's packed sums.
"""

from fractions import Fraction
from math import lcm

from superchar.cyclotomic import Cyclotomic, cyclotomic_polynomial
from superchar.reports import CheckReport


def _reduce(dense, e):
    # remainder of sum_k dense[k] x^k modulo the e-th cyclotomic polynomial
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    poly = list(dense)
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, cj in enumerate(cyc):
                poly[k - phi + j] -= c * cj
    return tuple(Fraction(c) for c in poly[:phi])


class Ref:
    """A value of Q(zeta_order) as the Fraction coordinates `dense` of a
    polynomial in zeta of degree < order.  Sums and products run modulo
    x^order - 1, which zeta satisfies; the coordinates are reduced modulo
    the cyclotomic polynomial only when a value is read (`coeffs`)."""

    def __init__(self, order, dense=()):
        dense = list(dense)
        self.order = order
        self.dense = dense[:order] + [0] * (order - len(dense))
        for k in range(order, len(dense)):
            self.dense[k % order] += dense[k]

    @classmethod
    def of(cls, v):
        """The package value v."""
        return cls(v.order, [n if v.den == 1 else Fraction(n, v.den) for n in v.num])

    def value(self):
        """This value as a package value."""
        return Cyclotomic(self.order, self.dense)

    @property
    def coeffs(self):
        """The coordinates in the power basis {zeta^k : k < phi(order)}."""
        return _reduce(self.dense, self.order)

    def lift(self, e):
        if e == self.order:
            return self
        dense = [0] * e
        for k, c in enumerate(self.dense):
            dense[k * (e // self.order)] = c
        return Ref(e, dense)

    def pair(self, other):
        e = lcm(self.order, other.order)
        return self.lift(e), other.lift(e)

    def __add__(self, other):
        a, b = self.pair(other)
        return Ref(a.order, [x + y if y else x for x, y in zip(a.dense, b.dense)])

    def __mul__(self, other):
        a, b = self.pair(other)
        out = [0] * a.order
        for i, x in enumerate(a.dense):
            if x:
                for j, y in enumerate(b.dense):
                    if y:
                        out[(i + j) % a.order] += x * y
        return Ref(a.order, out)

    def scale(self, q):
        return Ref(self.order, [c * q for c in self.dense])

    def conjugate(self):
        dense = [0] * self.order
        for k, c in enumerate(self.dense):
            dense[-k % self.order] = c
        return Ref(self.order, dense)

    def __eq__(self, other):
        a, b = self.pair(other)
        return a.coeffs == b.coeffs

    def text(self):
        """The display form of `Cyclotomic.__str__`."""
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


def _refs(rows):
    return [[Ref.of(v) for v in row] for row in rows]


def validate_table(T) -> CheckReport:
    """`chartab.validate_table`, orthogonality summed on `Ref`."""
    rep = CheckReport(f"character table of {T.group.label}")
    r = T.n_classes
    order = T.group.order
    rep.add("shape", len(T.values) == r, f"{len(T.values)} rows for {r} classes")
    one = Cyclotomic.one(T.exponent)
    rep.add("principal-row", all(v == one for v in T.values[0]))
    rep.add(
        "degree-sum",
        sum(d * d for d in T.degrees) == order,
        f"sum of squared degrees = {sum(d * d for d in T.degrees)}, |G| = {order}",
    )
    rep.add("integrality", all(v.is_integral() for row in T.values for v in row))
    values = _refs(T.values)
    conj = [[v.conjugate() for v in row] for row in values]
    ok = True
    detail = ""
    for i in range(r):
        for j in range(i, r):
            acc = Ref(T.exponent)
            for k in range(r):
                acc = acc + (values[i][k] * conj[j][k]).scale(T.sizes[k])
            expected = Fraction(order if i == j else 0)
            if acc.value() != Cyclotomic.from_rational(expected, T.exponent):
                ok = False
                detail = f"<chi_{i}, chi_{j}> != {'1' if i == j else '0'}"
                break
        if not ok:
            break
    rep.add("row-orthogonality", ok, detail)
    ok = True
    detail = ""
    for k in range(r):
        for l in range(k, r):
            acc = Ref(T.exponent)
            for t in range(len(T.values)):
                acc = acc + values[t][k] * conj[t][l]
            expected = Fraction(order, T.sizes[k]) if k == l else Fraction(0)
            if acc.value() != Cyclotomic.from_rational(expected, T.exponent):
                ok = False
                detail = f"columns {k},{l} fail"
                break
        if not ok:
            break
    rep.add("column-orthogonality", ok, detail)
    return rep


def sigma_class_values(table, part):
    """sigma_X = sum_{chi in X} chi(1) chi on every conjugacy class."""
    out = []
    for k in range(table.n_classes):
        acc = Ref(table.exponent)
        for t in part:
            acc = acc + Ref.of(table.values[t][k]).scale(table.degrees[t])
        out.append(acc.value())
    return tuple(out)


def central_character_keys(table, block_classes):
    """Per character, the keys of sum_{c in B} |c| chi(c) / chi(1) per block B."""
    keys = []
    for t in range(len(table.values)):
        key = []
        for classes in block_classes:
            acc = Ref(table.exponent)
            for c in classes:
                acc = acc + Ref.of(table.values[t][c]).scale(table.sizes[c])
            key.append(acc.scale(Fraction(1, table.degrees[t])).value().key())
        keys.append(tuple(key))
    return keys


def row_orthogonality(S) -> CheckReport:
    """`supertheory.check_row_orthogonality` summed on `Ref`."""
    rep = CheckReport(f"row orthogonality for a theory of {S.group.label}")
    order = S.group.order
    sizes = S.block_sizes()
    sigma = _refs(S.sigma)
    conj = [[v.conjugate() for v in row] for row in sigma]
    for i in range(S.n_parts):
        norm2 = sum(S.table.degrees[t] ** 2 for t in S.xparts[i])
        for j in range(i, S.n_parts):
            acc = Ref(S.table.exponent)
            for k in range(S.n_parts):
                acc = acc + (sigma[i][k] * conj[j][k]).scale(sizes[k])
            value = acc.scale(Fraction(1, order)).value()
            expected = Fraction(norm2 if i == j else 0)
            rep.add(
                f"pair-{i}-{j}",
                value == Cyclotomic.from_rational(expected, S.table.exponent),
                f"got {value}, expected {expected}",
            )
    return rep


def column_orthogonality(S, g, h):
    """`supertheory.check_column_orthogonality` summed on `Ref`:
    (sum_i sigma_i(g) conjugate(sigma_i(h)) / sigma_i(1), expected, ok)."""
    kg, kh = S.class_of(g), S.class_of(h)
    acc = Ref(S.table.exponent)
    for row in S.sigma:
        term = Ref.of(row[kg]) * Ref.of(row[kh]).conjugate()
        acc = acc + term.scale(1 / row[0].rational_value())
    if kg == kh:
        expected = Cyclotomic.from_rational(
            Fraction(S.group.order, len(S.yparts.blocks[kg])), S.table.exponent
        )
    else:
        expected = Cyclotomic.zero(S.table.exponent)
    value = acc.value()
    return value, expected, value == expected
