"""Exact irreducible character tables of small groups.

Tables are computed by the modular method: the class-sum matrices are
simultaneously diagonalized over a prime field F_p with p = 1 (mod e) and
p^2 > 4|G|, degrees are recovered from the second orthogonality relation,
and values are lifted to Z[zeta_e] by discrete Fourier inversion over the
e-th roots of unity mod p.  Every Dixon table and every ingested table is
validated in full, against both orthogonality relations decided exactly
on packed ints, before it is returned.

The two loops of the method run on packed ints too.  A vector x over F_p,
entries in [0, p), is the int sum_t x_t 2^(w t), and a sum sum_i c_i x_i
of such vectors, each c_i in [0, p), is one int sum whose base-2^w digit t
is sum_i c_i x_it, read back mod p.  If each digit is a sum of at most n
products of two numbers in [0, p), it is at most n (p - 1)^2 < 2^w for
w = bit_length(n (p - 1)^2), so no digit carries into the next.  The
eigenspace split (`_split_width`) packs the columns of a class matrix and
the basis vectors of an eigenspace at n = r, the class count: M v sums its
r columns, and an eigenvector sum_i c_i basis_i sums at most r basis
vectors.  The lift (`_lift_width`) packs one int per class c, whose digit
j e + l is the sum, over t < e with rep_j^t in c, of zeta^(-l t) mod p, at
n = e, the exponent: digit j e + l of sum_c chi(c) / e packed[c] has one
term chi(c) / e * zeta^(-l t) (both mod p) for each t < e, as rep_j^t lies
in exactly one class.

The table of a quotient G/N is not recomputed: its irreducible characters
are exactly the rows of the table of G whose kernel contains N, read on
cosets (Isaacs, Character Theory of Finite Groups, Lemma 2.22), in the
parent's field; a quotient of a quotient is inflated in two steps.
Inflation preserves inner products and the parent table was validated in
full, so the quotient table is proven by count alone: as many rows as
classes of G/N, squared degrees summing to |G/N|, principal row first.
"""

from __future__ import annotations

import re
from itertools import chain
from math import isqrt, lcm
from operator import floordiv, lshift, mod, mul

from .cyclotomic import Cyclotomic, Packing, _reduce, _value
from .errors import CharacterTableError, ConsistencyError
from .groups import GroupTable, SubgroupSet, cached, conjugacy_classes, element_mask, normal_subgroup, quotient_group
from .reports import CheckReport

DEFAULT_MAX_ORDER = 64
DEFAULT_PRIME_BOUND = 10**6


# ---------------------------------------------------------------------------
# class multiplication coefficients


@cached
def class_mult_coefficients(G: GroupTable):
    """a[i][j][k] = #{(x, y) in K_i x K_j : x*y = rep_k}.

    Verified against the counting identity
    sum_k a[i][j][k] |K_k| = |K_i| |K_j|.  Computed once per group.
    """
    classes = conjugacy_classes(G)
    r = len(classes)
    block_of = classes.block_of
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x, row in enumerate(G.mul):
        cx = counts[block_of[x]]
        for y in range(G.order):
            cx[block_of[y]][block_of[row[y]]] += 1
    sizes = [len(b) for b in classes.blocks]
    out = []
    for i in range(r):
        plane = []
        for j, line in enumerate(counts[i]):
            if any(map(mod, line, sizes)):
                raise ConsistencyError("class products are not constant on classes")
            line = tuple(map(floordiv, line, sizes))
            if sum(map(mul, line, sizes)) != sizes[i] * sizes[j]:
                raise ConsistencyError("class multiplication counting identity fails")
            plane.append(line)
        out.append(tuple(plane))
    return tuple(out)


# ---------------------------------------------------------------------------
# modular linear algebra (private)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    p = isqrt(4 * order)
    while True:
        p += 1
        if p > DEFAULT_PRIME_BOUND:
            raise CharacterTableError(
                f"no prime p = 1 (mod {exponent}) with p > 2*sqrt({order}) below {DEFAULT_PRIME_BOUND}"
            )
        if p % exponent == 1 % exponent and _is_prime(p):
            return p


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = []
    m = p - 1
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ConsistencyError(f"no primitive root modulo {p}")


def _sqrt_mod(a: int, p: int) -> int:
    a %= p
    for t in range(1, p):
        if t * t % p == a:
            return min(t, p - t)
    raise ConsistencyError(f"{a} is not a square modulo {p}")


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    ncols = len(rows[0])
    mat, pivots = _rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-mat[r][fc]) % p
        basis.append(vec)
    return basis


def _coords_in_span(basis: list[list[int]], targets: list[list[int]], p: int) -> list[list[int]]:
    # Solve B X = T where the columns of B are the basis vectors; returns X
    # with X[i][j] the basis-i coordinate of target j.
    k, r = len(basis), len(basis[0])
    m = len(targets)
    aug = [[basis[j][i] for j in range(k)] + [t[i] for t in targets] for i in range(r)]
    mat, pivots = _rref(aug, p)
    if len(pivots) < k or pivots[:k] != list(range(k)):
        raise ConsistencyError("basis vectors are not independent")
    if len(pivots) > k:
        raise ConsistencyError("target vector escapes the span")
    coords = [[0] * m for _ in range(k)]
    for row_idx, pc in enumerate(pivots):
        for j in range(m):
            coords[pc][j] = mat[row_idx][k + j]
    return coords


def _charpoly_mod(A: list[list[int]], p: int) -> list[int]:
    # Reduce to upper Hessenberg form by similarity, then use the standard
    # recurrence for the characteristic polynomials of the leading minors.
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = H[i][j] * inv % p
            if f:
                Hi, Hj1 = H[i], H[j + 1]
                for c in range(n):
                    Hi[c] = (Hi[c] - f * Hj1[c]) % p
                for r in range(n):
                    H[r][j + 1] = (H[r][j + 1] + f * H[r][i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] * (len(prev) + 1)
        a = H[m - 1][m - 1]
        for k, c in enumerate(prev):
            cur[k + 1] = (cur[k + 1] + c) % p
            cur[k] = (cur[k] - a * c) % p
        coeff = 1
        for i in range(m - 2, -1, -1):
            coeff = coeff * H[i + 1][i] % p
            b = H[i][m - 1] * coeff % p
            if b:
                for k, c in enumerate(polys[i]):
                    cur[k] = (cur[k] - b * c) % p
        polys.append(cur)
    return polys[n]


def _div_linear(poly: list[int], lam: int, p: int) -> tuple[list[int], int]:
    d = len(poly) - 1
    q = [0] * d
    q[d - 1] = poly[d] % p
    for k in range(d - 1, 0, -1):
        q[k - 1] = (poly[k] + lam * q[k]) % p
    rem = (poly[0] + lam * q[0]) % p
    return q, rem


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    cur = [c % p for c in poly]
    while cur and cur[-1] == 0:
        cur.pop()
    roots = []
    for lam in range(p):
        if len(cur) <= 1:
            break
        acc = 0
        for c in reversed(cur):
            acc = (acc * lam + c) % p
        while acc == 0 and len(cur) > 1:
            q, rem = _div_linear(cur, lam, p)
            if rem:
                break
            if lam not in roots:
                roots.append(lam)
            cur = q
            acc = 0
            for c in reversed(cur):
                acc = (acc * lam + c) % p
    return roots


def _lift_width(e: int, p: int) -> int:
    return (e * (p - 1) ** 2).bit_length()


def _split_width(r: int, p: int) -> int:
    return (r * (p - 1) ** 2).bit_length()


def _combine(coeffs, packed, w: int, count: int, p: int) -> list[int]:
    # sum_i coeffs[i] packed[i], read as its first count base-2^w digits mod p
    total, mask = sum(map(mul, coeffs, packed)), (1 << w) - 1
    return [(total >> s & mask) % p for s in range(0, w * count, w)]


def _simultaneous_eigenvectors(coeffs, p: int) -> list[list[int]]:
    """Common one-dimensional eigenvectors over F_p of the commuting class
    matrices M_i[j][k] = coeffs[i][j][k], with M v and each eigenvector
    sum_i c_i basis_i made as one sum of ints packed at `_split_width`."""
    r = len(coeffs)
    w = _split_width(r, p)
    shifts = range(0, w * r, w)
    pack = lambda v: sum(map(lshift, v, shifts))
    blocks: list[list[list[int]]] = [[[1 if j == i else 0 for j in range(r)] for i in range(r)]]
    for plane in coeffs:
        if all(len(b) == 1 for b in blocks):
            break
        cols = [pack(map(p.__rmod__, col)) for col in zip(*plane)]
        new_blocks = []
        for basis in blocks:
            k = len(basis)
            if k == 1:
                new_blocks.append(basis)
                continue
            images = [_combine(v, cols, w, r, p) for v in basis]
            # a block of all r dimensions is the unit basis (the start, or the
            # kernel of a zero matrix), in which M v is its own coordinates
            A = _coords_in_span(basis, images, p) if k < r else [list(t) for t in zip(*images)]
            eigenvalues = _poly_roots_mod(_charpoly_mod(A, p), p)
            packed = list(map(pack, basis))
            covered = 0
            for lam in eigenvalues:
                shifted = [
                    [(A[i][j] - (lam if i == j else 0)) % p for j in range(k)]
                    for i in range(k)
                ]
                kernel = _nullspace(shifted, p)
                if not kernel:
                    raise ConsistencyError("eigenvalue without eigenvector")
                new_blocks.append([_combine(c, packed, w, r, p) for c in kernel])
                covered += len(kernel)
            if covered != k:
                raise ConsistencyError("class matrix is not diagonalizable mod p")
        blocks = new_blocks
    if not all(len(b) == 1 for b in blocks):
        raise ConsistencyError("class matrices did not split into common eigenlines")
    vectors = []
    for basis in blocks:
        v = basis[0]
        if v[0] == 0:
            raise ConsistencyError("central character vanishes on the identity class")
        scale = pow(v[0], p - 2, p)
        vectors.append([x * scale % p for x in v])
    return vectors


# ---------------------------------------------------------------------------
# the table object


class CharacterTable:
    """Exact irreducible character values of a finite group, one row per
    character and one column per conjugacy class (canonical class order),
    in Q(zeta_e), e = `exponent`: the group's exponent, or for a table
    inflated onto G/N its parent table's, which exp(G/N) divides.

    `validation` holds the `validate_table` report made when the table was
    computed, inflated or ingested (None for a table built directly).  The
    `_memo` dict holds what the `groups.cached` functions derive from the
    table, the theories on it included: one object per class partition.
    """

    __slots__ = ("group", "classes", "reps", "sizes", "degrees", "values", "exponent",
                 "validation", "_memo")

    def __init__(self, group: GroupTable, values, exponent: int):
        classes = conjugacy_classes(group)
        self.group = group
        self.classes = classes
        self.reps = tuple(min(b) for b in classes.blocks)
        self.sizes = tuple(len(b) for b in classes.blocks)
        self.values = tuple(tuple(row) for row in values)
        self.exponent = exponent
        self.degrees = tuple(row[0].integer_value() for row in self.values)
        self.validation: CheckReport | None = None
        self._memo = {}

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    def value_at_element(self, t: int, g: int) -> Cyclotomic:
        return self.values[t][self.classes.block_of[g]]

    @cached
    def char_kernel(self, t: int) -> SubgroupSet:
        """ker(chi_t) = {g : chi_t(g) = chi_t(1)}, a member of the group's
        normal-subgroup lattice."""
        deg, blocks = self.values[t][0], self.classes.blocks
        mask = element_mask(g for k, v in enumerate(self.values[t]) if v == deg for g in blocks[k])
        return normal_subgroup(self.group, mask)

    def to_text(self) -> str:
        lines = [f"chartab {self.group.label} classes={self.n_classes} exponent={self.exponent}"]
        for k in range(self.n_classes):
            lines.append(f"class {k} size={self.sizes[k]} rep={self.reps[k]}")
        for row in self.values:
            lines.append(", ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "group": self.group.label,
            "exponent": self.exponent,
            "classes": [
                {"index": k, "size": self.sizes[k], "rep": self.reps[k]}
                for k in range(self.n_classes)
            ],
            "characters": [[str(v) for v in row] for row in self.values],
            "degrees": list(self.degrees),
        }

    def __repr__(self) -> str:
        return f"CharacterTable({self.group.label}, {self.n_classes} classes)"


def validate_table(T: CharacterTable) -> CheckReport:
    """Exact validation: shape, principal row, degree sum, integrality, and
    both orthogonality relations.  Failures are reported, not raised."""
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
    ones = [1] * len(T.values)
    rows, cols = orthogonality(T.exponent, T.values, T.sizes, ones, ones)
    bad = rows[0] if rows else None
    rep.add("row-orthogonality", not bad, f"<chi_{bad[0]}, chi_{bad[1]}> != {int(bad[0] == bad[1])}" if bad else "")
    bad = cols[0] if cols else None
    rep.add("column-orthogonality", not bad, f"columns {bad[0]},{bad[1]} fail" if bad else "")
    return rep


def orthogonality(order: int, values, sizes, divisors, norms) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The pairs i <= j and k <= l, row by row, at which the rows `values`
    of Q(zeta_order) fail the two orthogonality relations

        sum_k sizes[k] v_ik conj(v_jk) / sum(sizes) = norms[i] if i == j, else 0
        sum_i v_ik conj(v_il) / divisors[i] = sum(sizes) / sizes[k] if k == l, else 0

    each decided exactly on one packing.  With L the lcm of the positive
    int divisors, the second is taken times L sizes[k], so that its weights
    sizes[k] L / divisors[i] and its target L sum(sizes) are ints.  The
    weights of a row sum add up to sum(sizes), those of a column sum to at
    most max(sizes) times the sum of the L / divisors[i].
    """
    L, total = lcm(*divisors), sum(sizes)
    weights = [L // d for d in divisors]
    pk = Packing(order, chain(*values), max(total, max(sizes) * sum(weights)), total * max(L, *norms))
    packed = [list(map(pk.pack, row)) for row in values]
    conj = [[pk.pack(v, True) for v in row] for row in values]
    sized = [list(map(mul, sizes, row)) for row in packed]
    weighted = [[size * w * v for w, v in zip(weights, col)] for size, col in zip(sizes, zip(*packed))]
    conj_cols = list(zip(*conj))
    n, r = len(values), len(sizes)
    rows = [(i, j) for i in range(n) for j in range(i, n)
            if not pk.holds(sum(map(mul, sized[i], conj[j])), norms[i] * total if i == j else 0)]
    cols = [(k, l) for k in range(r) for l in range(k, r)
            if not pk.holds(sum(map(mul, weighted[k], conj_cols[l])), L * total if k == l else 0)]
    return rows, cols


# ---------------------------------------------------------------------------
# Dixon's method and inflation


def _canonical_row_key(row):
    # rows by degree, the principal row first, then by descending
    # power-basis coordinates
    return (row[0].num[0], any(v.num != row[0].num for v in row), tuple(tuple(-c for c in v.num) for v in row))


def dixon_character_table(G: GroupTable) -> CharacterTable:
    """Compute the exact character table of G by the modular method."""
    if G.order > DEFAULT_MAX_ORDER:
        raise CharacterTableError(
            f"group order {G.order} exceeds the bound {DEFAULT_MAX_ORDER}"
        )
    classes = conjugacy_classes(G)
    r = len(classes)
    reps = [min(b) for b in classes.blocks]
    sizes = [len(b) for b in classes.blocks]
    e = G.exponent()
    p = _dixon_prime(G.order, e)
    omegas = _simultaneous_eigenvectors(class_mult_coefficients(G), p)

    pinv = lambda x: pow(x, p - 2, p)
    inv_class = [classes.block_of[G.inv[rep]] for rep in reps]
    size_inv = [pinv(s % p) for s in sizes]

    # packed[c]: base-2^w digit j e + l is the sum, over t < e with rep_j^t
    # in class c, of zeta^(-l t) mod p; so digit j e + l of sum_c chi(c) / e
    # packed[c] is, mod p, the multiplicity of zeta^l as an eigenvalue of
    # rep_j under chi
    zinv = pinv(pow(_primitive_root(p), (p - 1) // e, p))
    w = _lift_width(e, p)
    z = [sum(pow(zinv, l * t, p) << w * l for l in range(e)) for t in range(e)]
    packed = [0] * r
    for j, rep in enumerate(reps):
        x = 0
        for t in range(e):
            packed[classes.block_of[x]] += z[t] << w * e * j
            x = G.mul[x][rep]
    e_inv = pinv(e % p)

    rows = []
    for v in omegas:
        s = sum(v[k] * v[inv_class[k]] % p * size_inv[k] for k in range(r)) % p
        d2 = G.order % p * pinv(s) % p
        d = _sqrt_mod(d2, p)
        chi_mod = [d * v[k] % p * size_inv[k] % p * e_inv % p for k in range(r)]
        mults = _combine(chi_mod, packed, w, r * e, p)
        row = []
        for j in range(0, r * e, e):
            if sum(mults[j:j + e]) != d:
                raise ConsistencyError(
                    "eigenvalue multiplicities do not sum to the character degree"
                )
            row.append(_value(e, _reduce(mults[j:j + e], e)))
        rows.append(tuple(row))

    rows.sort(key=_canonical_row_key)
    table = CharacterTable(G, rows, e)
    table.validation = report = validate_table(table)
    if not report.ok:
        raise ConsistencyError(
            "modular lifting produced an invalid table: "
            + "; ".join(c.name for c in report.failures)
        )
    return table


@cached
def quotient_character_table(T: CharacterTable, N: SubgroupSet) -> CharacterTable:
    """The table of G/N inflated from the table T of G, once per (T, N).

    The rows of T whose kernel contains N are read at one element of each
    coset that is a class representative of G/N, with their values as
    they are, in T's field Q(zeta_e), e = T.exponent, and put in Dixon's
    canonical order.
    Inflation preserves inner products, so with T valid the table is
    proven by its row count, its degree sum and its principal row, which
    make up its `validation` report.  The table of G/{1} = G is T.
    """
    if len(N) == 1:
        return T
    G = T.group
    Q, proj = quotient_group(G, N)
    reps = [proj.index(min(b)) for b in conjugacy_classes(Q).blocks]
    e = T.exponent
    rows = [
        tuple(T.value_at_element(t, g) for g in reps)
        for t in range(len(T.values))
        if not N.mask & ~T.char_kernel(t).mask
    ]
    table = CharacterTable(Q, sorted(rows, key=_canonical_row_key), e)
    report = CheckReport(f"character table of {Q.label}, inflated from {G.label}")
    report.add("shape", len(rows) == table.n_classes, f"{len(rows)} rows for {table.n_classes} classes")
    report.add(
        "degree-sum",
        sum(d * d for d in table.degrees) == Q.order,
        f"sum of squared degrees = {sum(d * d for d in table.degrees)}, |G/N| = {Q.order}",
    )
    one = Cyclotomic.one(e)
    report.add("principal-row", all(v == one for v in table.values[0]))
    if not report.ok:
        raise ConsistencyError(
            "inflation produced an invalid quotient table: "
            + "; ".join(c.name for c in report.failures)
        )
    table.validation = report
    return table


@cached
def character_table_of(G: GroupTable) -> CharacterTable:
    """The group's character table; a quotient R/M gets the table of R
    inflated (`quotient_character_table`), so Dixon never runs on it."""
    if G.quotient_of is None:
        return dixon_character_table(G)
    R, M = G.quotient_of
    return quotient_character_table(character_table_of(R), M)


# ---------------------------------------------------------------------------
# ingestion

_HEADER_RE = re.compile(r"^chartab\s+(\S+)\s+classes=(\d+)\s+exponent=(\d+)\s*$")
_CLASS_RE = re.compile(r"^class\s+(\d+)\s+size=(\d+)\s+rep=(\d+)\s*$")


def ingest_table(text: str, G: GroupTable) -> CharacterTable:
    """Parse and validate an externally supplied character table, in the
    field Q(zeta_e) of its header, e a multiple of exp(G) (as for G/N)."""
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise CharacterTableError("empty character table text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise CharacterTableError(f"malformed header line: {lines[0]!r}")
    k = int(m.group(2))
    e = int(m.group(3))
    classes = conjugacy_classes(G)
    if k != len(classes):
        raise CharacterTableError(
            f"class mismatch: file declares {k} classes, group has {len(classes)}"
        )
    if e < 1 or e % G.exponent():
        raise CharacterTableError(
            f"exponent mismatch: file declares {e}, not a multiple of the group exponent {G.exponent()}"
        )
    if len(lines) != 1 + k + k:
        raise CharacterTableError(
            f"expected {k} class lines and {k} character lines, found {len(lines) - 1}"
        )
    for idx in range(k):
        cm = _CLASS_RE.match(lines[1 + idx])
        if not cm:
            raise CharacterTableError(f"malformed class line: {lines[1 + idx]!r}")
        ci, size, rep = (int(cm.group(n)) for n in (1, 2, 3))
        if ci != idx:
            raise CharacterTableError(f"class lines out of order at index {idx}")
        if rep >= G.order or classes.block_of[rep] != idx or len(classes.blocks[idx]) != size:
            raise CharacterTableError(
                f"class mismatch at index {idx}: size/rep do not match the group's classes"
            )
    rows = []
    for idx in range(k):
        toks = lines[1 + k + idx].split(",")
        if len(toks) != k:
            raise CharacterTableError(f"character row {idx} has {len(toks)} values, expected {k}")
        try:
            rows.append(tuple(Cyclotomic.parse(tok, e) for tok in toks))
        except ValueError as exc:
            raise CharacterTableError(f"bad value in character row {idx}: {exc}") from exc
        if not rows[-1][0].is_rational() or rows[-1][0].rational_value() <= 0:
            raise CharacterTableError(f"character row {idx} has a non-positive degree")
        if rows[-1][0].rational_value().denominator != 1:
            raise CharacterTableError(f"character row {idx} has a fractional degree")
    table = CharacterTable(G, rows, e)
    table.validation = report = validate_table(table)
    if not report.ok:
        raise CharacterTableError(
            "orthogonality failure: " + "; ".join(f"{c.name} ({c.detail})" if c.detail else c.name for c in report.failures)
        )
    return table
