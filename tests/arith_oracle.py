"""Test-only oracle: the exact sums of the package on plain Fraction coordinates.

Both Gram triangles of the orthogonality relations (for tables and for
supercharacter theories), sigma_X on the classes and the central-character
keys of a derivation, summed term by term on `Ref`, a field arithmetic
that shares no code with `superchar.cyclotomic` beyond the cyclotomic
polynomial.  Each result is converted with `Cyclotomic(order, coeffs)` only
to be compared with the package's packed sums, or with a rational target
to give the failing pairs that `chartab.orthogonality` decides on ints.
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


def key(v) -> tuple:
    """The normal form of a package value, hashable; equal keys of one order
    are equal values."""
    return (v.order, v.num, v.den)


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


def gram(order, values, sizes, divisors):
    """The Gram matrices of `chartab.orthogonality`, summed term by term on
    `Ref`: the upper triangles rows[i][j - i] = sum_k sizes[k] v_ik conj(v_jk) / sum(sizes)
    and cols[k][l - k] = sum_i v_ik conj(v_il) / divisors[i]."""
    refs = _refs(values)
    conj = [[v.conjugate() for v in row] for row in refs]
    n, r = len(refs), len(sizes)
    rows = []
    for i in range(n):
        row = []
        for j in range(i, n):
            acc = Ref(order)
            for k in range(r):
                acc = acc + (refs[i][k] * conj[j][k]).scale(sizes[k])
            row.append(acc.scale(Fraction(1, sum(sizes))).value())
        rows.append(row)
    cols = []
    for k in range(r):
        col = []
        for l in range(k, r):
            acc = Ref(order)
            for i in range(n):
                term = refs[i][k] * conj[i][l]
                acc = acc + (term if divisors[i] == 1 else term.scale(Fraction(1, divisors[i])))
            col.append(acc.value())
        cols.append(col)
    return rows, cols


def table_gram(T):
    return gram(T.exponent, T.values, T.sizes, [1] * len(T.values))


def sigma_gram(S):
    return gram(S.table.exponent, S.sigma, S.block_sizes(), [row[0].integer_value() for row in S.sigma])


def failing_pairs(triangle, diagonal):
    """The pairs a <= b, row by row, whose entry triangle[a][b - a] is not
    diagonal[a] when a == b and 0 otherwise."""
    return [(a, a + d) for a, row in enumerate(triangle) for d, value in enumerate(row)
            if value != Cyclotomic.from_rational(diagonal[a] if d == 0 else 0, value.order)]


def table_failures(T, gram):
    """The failing pairs of both relations of the table T, read from gram =
    `table_gram(T)`: what `chartab.orthogonality` returns for T."""
    rows, cols = gram
    return failing_pairs(rows, [1] * len(rows)), failing_pairs(cols, [Fraction(T.group.order, s) for s in T.sizes])


def sigma_failures(S, gram):
    """The failing pairs of both relations of the supercharacters of S, read
    from gram = `sigma_gram(S)`: what `sigma_orthogonality(S)` returns."""
    rows, cols = gram
    norms = [sum(S.table.degrees[t] ** 2 for t in part) for part in S.xparts]
    return failing_pairs(rows, norms), failing_pairs(cols, [Fraction(S.group.order, len(b)) for b in S.yparts.blocks])


def validate_table(T, gram) -> CheckReport:
    """`chartab.validate_table`, orthogonality read from gram = `table_gram(T)`."""
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
    rows, cols = table_failures(T, gram)
    bad = rows[0] if rows else None
    rep.add("row-orthogonality", not bad, f"<chi_{bad[0]}, chi_{bad[1]}> != {'1' if bad[0] == bad[1] else '0'}" if bad else "")
    bad = cols[0] if cols else None
    rep.add("column-orthogonality", not bad, f"columns {bad[0]},{bad[1]} fail" if bad else "")
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
        row = []
        for classes in block_classes:
            acc = Ref(table.exponent)
            for c in classes:
                acc = acc + Ref.of(table.values[t][c]).scale(table.sizes[c])
            row.append(key(acc.scale(Fraction(1, table.degrees[t])).value()))
        keys.append(tuple(row))
    return keys


def row_orthogonality(S, gram):
    """The `P-roworth` verdict read from gram = `sigma_gram(S)`: the
    witness {"failing": ["pair-i-j", ...]} naming every pair i <= j with
    <sigma_i, sigma_j> != delta_ij ||X_i||^2, or None."""
    failing = [f"pair-{i}-{j}" for i, j in sigma_failures(S, gram)[0]]
    return {"failing": failing} if failing else None


def column_orthogonality(S, gram):
    """The `P-colorth` verdict read from gram = `sigma_gram(S)`: the
    witness {"g": min(K_k), "h": min(K_l)} of the first failing pair k <= l,
    or None."""
    blocks, cols = S.yparts.blocks, sigma_failures(S, gram)[1]
    return {"g": min(blocks[cols[0][0]]), "h": min(blocks[cols[0][1]])} if cols else None
