"""Test-only oracle: Dixon's method on lists, as the package ran it before
its eigenspace split and its lift were packed into ints.

`_simultaneous_eigenvectors` forms each image M v and each eigenvector
sum_i c_i basis_i coordinate by coordinate; `dixon_character_table` lifts
each row by summing, for every class representative, one e-long list per
class its powers fall in.  Both keep every check the package makes: span
membership, diagonalizability, the multiplicity sums and `validate_table`.
The modular algebra they share with the package (`_rref`, `_nullspace`,
`_coords_in_span`, the characteristic polynomial and its roots) is
imported, not copied.
"""

from superchar.chartab import (
    CharacterTable,
    _canonical_row_key,
    _charpoly_mod,
    _coords_in_span,
    _dixon_prime,
    _nullspace,
    _poly_roots_mod,
    _primitive_root,
    _sqrt_mod,
    class_mult_coefficients,
    validate_table,
)
from superchar.cyclotomic import Cyclotomic
from superchar.errors import ConsistencyError
from superchar.groups import conjugacy_classes


def _mat_vec(M, v, p):
    return [sum(row[k] * v[k] for k in range(len(v)) if v[k]) % p for row in M]


def _simultaneous_eigenvectors(mats, p):
    """Common one-dimensional eigenvectors of a commuting family over F_p."""
    r = len(mats[0])
    blocks = [[[1 if j == i else 0 for j in range(r)] for i in range(r)]]
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
            covered = 0
            for lam in _poly_roots_mod(_charpoly_mod(A, p), p):
                shifted = [[(A[i][j] - (lam if i == j else 0)) % p for j in range(k)] for i in range(k)]
                kernel = _nullspace(shifted, p)
                if not kernel:
                    raise ConsistencyError("eigenvalue without eigenvector")
                new_blocks.append([[sum(c[i] * basis[i][t] for i in range(k)) % p for t in range(r)] for c in kernel])
                covered += len(kernel)
            if covered != k:
                raise ConsistencyError("class matrix is not diagonalizable mod p")
        blocks = new_blocks
    if not all(len(b) == 1 for b in blocks):
        raise ConsistencyError("class matrices did not split into common eigenlines")
    vectors = []
    for (v,) in blocks:
        if v[0] == 0:
            raise ConsistencyError("central character vanishes on the identity class")
        scale = pow(v[0], p - 2, p)
        vectors.append([x * scale % p for x in v])
    return vectors


def dixon_character_table(G):
    """The validated character table of G, computed on lists."""
    classes = conjugacy_classes(G)
    r = len(classes)
    reps = [min(b) for b in classes.blocks]
    sizes = [len(b) for b in classes.blocks]
    e = G.exponent()
    p = _dixon_prime(G.order, e)
    coeffs = class_mult_coefficients(G)
    mats = [[[coeffs[i][j][k] % p for k in range(r)] for j in range(r)] for i in range(r)]
    omegas = _simultaneous_eigenvectors(mats, p)

    pinv = lambda x: pow(x, p - 2, p)
    inv_class = [classes.block_of[G.inv[rep]] for rep in reps]
    size_inv = [pinv(s % p) for s in sizes]
    zinv = pinv(pow(_primitive_root(p), (p - 1) // e, p))
    zinv_pow = [pow(zinv, t, p) for t in range(e)]
    e_inv = pinv(e % p)

    # lift[j]: each class c that a power of rep_j falls in, with the sums
    # W[l] = sum over t < e with rep_j^t in c of zeta^(-l t) / e (mod p)
    lift = []
    for rep in reps:
        sums = {}
        x = 0
        for t in range(e):
            w = sums.setdefault(classes.block_of[x], [0] * e)
            for l in range(e):
                w[l] += zinv_pow[l * t % e]
            x = G.mul[x][rep]
        lift.append([(c, [a * e_inv % p for a in w]) for c, w in sums.items()])

    rows = []
    for v in omegas:
        s = sum(v[k] * v[inv_class[k]] % p * size_inv[k] for k in range(r)) % p
        d = _sqrt_mod(G.order % p * pinv(s) % p, p)
        chi_mod = [d * v[k] % p * size_inv[k] % p for k in range(r)]
        row = []
        for terms in lift:
            acc = [0] * e
            for c, w in terms:
                acc = [a + chi_mod[c] * b for a, b in zip(acc, w)]
            mults = [a % p for a in acc]
            if sum(mults) != d:
                raise ConsistencyError("eigenvalue multiplicities do not sum to the character degree")
            row.append(Cyclotomic(e, mults))
        rows.append(tuple(row))

    rows.sort(key=_canonical_row_key)
    table = CharacterTable(G, rows, e)
    table.validation = report = validate_table(table)
    if not report.ok:
        raise ConsistencyError("modular lifting produced an invalid table")
    return table
