"""Exact irreducible character tables of small groups.

Tables are computed by the modular method: the class-sum matrices are
simultaneously diagonalized over a prime field F_p with p = 1 (mod e) and
p^2 > 4|G|, degrees are recovered from the second orthogonality relation,
and values are lifted to Z[zeta_e] by discrete Fourier inversion over the
e-th roots of unity mod p.  Every table is validated against both
orthogonality relations in exact cyclotomic arithmetic before it is
returned.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from .cyclotomic import Cyclotomic, hermitian_term
from .errors import CharacterTableError, ConsistencyError
from .groups import GroupTable, SubgroupSet, conjugacy_classes
from .reports import CheckReport

DEFAULT_MAX_ORDER = 64
DEFAULT_PRIME_BOUND = 10**6


# ---------------------------------------------------------------------------
# class multiplication coefficients


def class_mult_coefficients(G: GroupTable):
    """a[i][j][k] = #{(x, y) in K_i x K_j : x*y = rep_k}.

    Verified against the counting identity
    sum_k a[i][j][k] |K_k| = |K_i| |K_j|.  Computed once per group.
    """
    if "class_mult" in G._memo:
        return G._memo["class_mult"]
    classes = conjugacy_classes(G)
    r = len(classes)
    block_of = classes.block_of
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x in range(G.order):
        bx = block_of[x]
        row = G.mul[x]
        cx = counts[bx]
        for y in range(G.order):
            cx[block_of[y]][block_of[row[y]]] += 1
    sizes = [len(b) for b in classes.blocks]
    out = []
    for i in range(r):
        plane = []
        for j in range(r):
            line = []
            for k in range(r):
                q, rem = divmod(counts[i][j][k], sizes[k])
                if rem:
                    raise ConsistencyError("class products are not constant on classes")
                line.append(q)
            if sum(line[k] * sizes[k] for k in range(r)) != sizes[i] * sizes[j]:
                raise ConsistencyError("class multiplication counting identity fails")
            plane.append(tuple(line))
        out.append(tuple(plane))
    G._memo["class_mult"] = tuple(out)
    return G._memo["class_mult"]


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


def _dixon_prime(order: int, exponent: int, bound: int) -> int:
    p = isqrt(4 * order)
    while True:
        p += 1
        if p > bound:
            raise CharacterTableError(
                f"no prime p = 1 (mod {exponent}) with p > 2*sqrt({order}) below {bound}"
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


def _mat_vec(M: list[list[int]], v: list[int], p: int) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v)) if v[k]) % p for row in M]


def _simultaneous_eigenvectors(mats, p: int) -> list[list[int]]:
    """Common one-dimensional eigenvectors of a commuting family over F_p."""
    r = len(mats[0])
    unit = lambda i: [1 if j == i else 0 for j in range(r)]
    blocks: list[list[list[int]]] = [[unit(i) for i in range(r)]]
    for M in mats:
        if all(len(b) == 1 for b in blocks):
            break
        new_blocks = []
        for basis in blocks:
            k = len(basis)
            if k == 1:
                new_blocks.append(basis)
                continue
            images = [_mat_vec(M, v, p) for v in basis]
            A = _coords_in_span(basis, images, p)
            eigenvalues = _poly_roots_mod(_charpoly_mod(A, p), p)
            covered = 0
            for lam in eigenvalues:
                shifted = [
                    [(A[i][j] - (lam if i == j else 0)) % p for j in range(k)]
                    for i in range(k)
                ]
                kernel = _nullspace(shifted, p)
                if not kernel:
                    raise ConsistencyError("eigenvalue without eigenvector")
                sub = [
                    [sum(c[i] * basis[i][t] for i in range(k)) % p for t in range(r)]
                    for c in kernel
                ]
                new_blocks.append(sub)
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
    character and one column per conjugacy class (canonical class order).

    `validation` holds the `validate_table` report made when the table was
    computed or ingested (None for a table built directly).
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
        degrees = []
        for row in self.values:
            degrees.append(row[0].integer_value())
        self.degrees = tuple(degrees)
        self.validation: CheckReport | None = None
        self._memo = {}

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    def value(self, t: int, class_index: int) -> Cyclotomic:
        return self.values[t][class_index]

    def value_at_element(self, t: int, g: int) -> Cyclotomic:
        return self.values[t][self.classes.block_of[g]]

    def char_kernel(self, t: int) -> SubgroupSet:
        """ker(chi_t) = {g : chi_t(g) = chi_t(1)}."""
        key = ("kernel", t)
        if key not in self._memo:
            deg = self.values[t][0]
            members = set()
            for k, block in enumerate(self.classes.blocks):
                if self.values[t][k] == deg:
                    members.update(block)
            self._memo[key] = SubgroupSet(self.group, members)
        return self._memo[key]

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
    ok = True
    detail = ""
    for i in range(r):
        for j in range(i, r):
            acc = Cyclotomic.zero(T.exponent)
            for k in range(r):
                acc = acc + T.sizes[k] * hermitian_term(T.values[i][k], T.values[j][k])
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
                acc = acc + hermitian_term(T.values[t][k], T.values[t][l])
            expected = Fraction(order, T.sizes[k]) if k == l else Fraction(0)
            if acc != Cyclotomic.from_rational(expected, T.exponent):
                ok = False
                detail = f"columns {k},{l} fail"
                break
        if not ok:
            break
    rep.add("column-orthogonality", ok, detail)
    return rep


# ---------------------------------------------------------------------------
# Dixon's method


def dixon_character_table(
    G: GroupTable,
    max_group_order: int = DEFAULT_MAX_ORDER,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> CharacterTable:
    """Compute the exact character table of G by the modular method."""
    if G.order > max_group_order:
        raise CharacterTableError(
            f"group order {G.order} exceeds the bound {max_group_order}"
        )
    classes = conjugacy_classes(G)
    r = len(classes)
    reps = [min(b) for b in classes.blocks]
    sizes = [len(b) for b in classes.blocks]
    e = G.exponent()
    p = _dixon_prime(G.order, e, prime_bound)
    coeffs = class_mult_coefficients(G)
    mats = [[[coeffs[i][j][k] % p for k in range(r)] for j in range(r)] for i in range(r)]
    omegas = _simultaneous_eigenvectors(mats, p)

    pinv = lambda x: pow(x, p - 2, p)
    inv_class = [classes.block_of[G.inv[rep]] for rep in reps]
    size_inv = [pinv(s % p) for s in sizes]

    # power map: pm[j][s] = class of rep_j^s
    pm = []
    for rep in reps:
        row = []
        x = 0
        for _ in range(e):
            row.append(classes.block_of[x])
            x = G.mul[x][rep]
        pm.append(row)

    z = pow(_primitive_root(p), (p - 1) // e, p)
    zinv_pow = [1]
    zinv = pinv(z)
    for _ in range(e - 1):
        zinv_pow.append(zinv_pow[-1] * zinv % p)
    e_inv = pinv(e % p)

    rows = []
    degrees = []
    for v in omegas:
        s = sum(v[k] * v[inv_class[k]] % p * size_inv[k] for k in range(r)) % p
        d2 = G.order % p * pinv(s) % p
        d = _sqrt_mod(d2, p)
        chi_mod = [d * v[k] % p * size_inv[k] % p for k in range(r)]
        row = []
        for j in range(r):
            mults = []
            for l in range(e):
                acc = 0
                for t in range(e):
                    acc += chi_mod[pm[j][t]] * zinv_pow[(l * t) % e]
                mults.append(acc % p * e_inv % p)
            if sum(mults) != d:
                raise ConsistencyError(
                    "eigenvalue multiplicities do not sum to the character degree"
                )
            row.append(Cyclotomic(e, mults))
        rows.append(tuple(row))
        degrees.append(d)

    order_keys = sorted(
        range(r),
        key=lambda t: (degrees[t], tuple(tuple(-c for c in v.num) for v in rows[t])),
    )
    rows = [rows[t] for t in order_keys]
    table = CharacterTable(G, rows, e)
    one = Cyclotomic.one(e)
    if not all(v == one for v in table.values[0]):
        raise ConsistencyError("canonical ordering did not place the principal character first")
    table.validation = report = validate_table(table)
    if not report.ok:
        raise ConsistencyError(
            "modular lifting produced an invalid table: "
            + "; ".join(c.name for c in report.failures)
        )
    return table


def character_table_of(G: GroupTable) -> CharacterTable:
    """The group's character table, computed once and cached on the group."""
    if "character_table" not in G._memo:
        G._memo["character_table"] = dixon_character_table(G)
    return G._memo["character_table"]


# ---------------------------------------------------------------------------
# ingestion

_HEADER_RE = re.compile(r"^chartab\s+(\S+)\s+classes=(\d+)\s+exponent=(\d+)\s*$")
_CLASS_RE = re.compile(r"^class\s+(\d+)\s+size=(\d+)\s+rep=(\d+)\s*$")


def ingest_table(text: str, G: GroupTable) -> CharacterTable:
    """Parse and validate an externally supplied character table."""
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
    if e != G.exponent():
        raise CharacterTableError(
            f"exponent mismatch: file declares {e}, group exponent is {G.exponent()}"
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
