"""Test-only oracle: the exact sums of the package, one `Cyclotomic` at a time.

The orthogonality relations of `validate_table`, sigma_X on the classes,
the central-character keys of a derivation and both supercharacter
orthogonality relations, computed the way `chartab` and `supertheory`
computed them before they moved to `cyclotomic.Packing`: every term is a
`Cyclotomic` product or sum, reduced on its own.  Kept here as a slow
reference for the packed sums.
"""

from fractions import Fraction

from superchar.cyclotomic import Cyclotomic
from superchar.reports import CheckReport


def validate_table(T) -> CheckReport:
    """`chartab.validate_table`, orthogonality by object arithmetic."""
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
    conj = [[v.conjugate() for v in row] for row in T.values]
    ok = True
    detail = ""
    for i in range(r):
        for j in range(i, r):
            acc = Cyclotomic.zero(T.exponent)
            for k in range(r):
                acc = acc + T.sizes[k] * (T.values[i][k] * conj[j][k])
            expected = Fraction(order if i == j else 0)
            if acc != Cyclotomic.from_rational(expected, T.exponent):
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
            acc = Cyclotomic.zero(T.exponent)
            for t in range(len(T.values)):
                acc = acc + T.values[t][k] * conj[t][l]
            expected = Fraction(order, T.sizes[k]) if k == l else Fraction(0)
            if acc != Cyclotomic.from_rational(expected, T.exponent):
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
        acc = Cyclotomic.zero(table.exponent)
        for t in part:
            acc = acc + table.degrees[t] * table.values[t][k]
        out.append(acc)
    return tuple(out)


def central_character_keys(table, block_classes):
    """Per character, the keys of sum_{c in B} |c| chi(c) / chi(1) per block B."""
    keys = []
    for t in range(len(table.values)):
        key = []
        for classes in block_classes:
            acc = Cyclotomic.zero(table.exponent)
            for c in classes:
                acc = acc + table.sizes[c] * table.values[t][c]
            key.append((acc / table.degrees[t]).key())
        keys.append(tuple(key))
    return keys


def row_orthogonality(S) -> CheckReport:
    """`supertheory.check_row_orthogonality` by object arithmetic."""
    rep = CheckReport(f"row orthogonality for a theory of {S.group.label}")
    order = S.group.order
    sizes = S.block_sizes()
    conj = [[v.conjugate() for v in row] for row in S.sigma]
    for i in range(S.n_parts):
        norm2 = sum(S.table.degrees[t] ** 2 for t in S.xparts[i])
        for j in range(i, S.n_parts):
            acc = Cyclotomic.zero(S.table.exponent)
            for k in range(S.n_parts):
                acc = acc + sizes[k] * (S.sigma[i][k] * conj[j][k])
            acc = acc / order
            expected = Fraction(norm2 if i == j else 0)
            rep.add(
                f"pair-{i}-{j}",
                acc == Cyclotomic.from_rational(expected, S.table.exponent),
                f"got {acc}, expected {expected}",
            )
    return rep


def column_orthogonality(S, g, h):
    """`supertheory.check_column_orthogonality` by object arithmetic:
    (sum_i sigma_i(g) conjugate(sigma_i(h)) / sigma_i(1), expected, ok)."""
    kg, kh = S.class_of(g), S.class_of(h)
    acc = Cyclotomic.zero(S.table.exponent)
    for row in S.sigma:
        acc = acc + row[kg] * (row[kh].conjugate() / row[0].rational_value())
    if kg == kh:
        expected = Cyclotomic.from_rational(
            Fraction(S.group.order, len(S.yparts.blocks[kg])), S.table.exponent
        )
    else:
        expected = Cyclotomic.zero(S.table.exponent)
    return acc, expected, acc == expected
