"""Supercharacter theories: validated partition pairs and their transforms.

A supercharacter theory of G is a pair (X, Y) where X partitions the
irreducible characters, Y partitions the elements, {1} is a Y-block,
|X| = |Y|, and each sigma_X = sum_{chi in X} chi(1) chi is constant on
every Y-block.  Everything here works with exact cyclotomic values, so
"constant" and "zero" are never tolerance tests.  Every theory, a
deflation included, is derived from its class partition and validated in
full.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .chartab import (
    CharacterTable,
    character_table_of,
    class_mult_coefficients,
    orthogonality,
)
from .cyclotomic import Cyclotomic, Packing
from .errors import ConsistencyError, GroupConstructionError, SuperTheoryError
from .groups import (
    ElementPartition,
    SubgroupSet,
    cached,
    element_mask,
    quotient_group,
)
from .reports import CheckReport

MAX_CLASSES = 12  # bound on the conjugacy classes (= |Irr(G)|) enumerate_scts takes


class SuperTheory:
    """A validated supercharacter theory of a finite group.

    Instances are immutable.  Each is the cached value of
    `sct_from_class_partition(table, yparts)`, made only by `_theory`, so
    equal theories of one table are one object and compare by identity.
    The `_memo` dict holds what the `groups.cached` functions derive from
    the theory (S-normal subgroups, deflations, vanishing subgroups, ...);
    failed calls are never stored.
    """

    __slots__ = ("table", "group", "xparts", "yparts", "ypart_classes", "sigma", "_memo")

    def __init__(self, table, xparts, yparts, ypart_classes, sigma):
        self.table = table
        self.group = table.group
        self.xparts = xparts
        self.yparts = yparts
        self.ypart_classes = ypart_classes
        self.sigma = sigma
        self._memo = {}

    @property
    def n_parts(self) -> int:
        return len(self.xparts)

    def class_of(self, g: int) -> int:
        """Index of the superclass containing g."""
        return self.yparts.block_of[g]

    def superclass(self, g: int) -> frozenset[int]:
        """Cl_S(g), the superclass of g as an element set."""
        return self.yparts.blocks[self.yparts.block_of[g]]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.yparts.blocks)

    @cached
    def supercharacters(self) -> tuple["SuperCharacter", ...]:
        return tuple(SuperCharacter(self, i) for i in range(self.n_parts))

    @cached
    def block_masks(self) -> tuple[int, ...]:
        """The superclasses as bitmasks of their elements."""
        return tuple(map(element_mask, self.yparts.blocks))

    @cached
    def is_s_normal(self, H: SubgroupSet) -> bool:
        """True when H is a union of superclasses; cached per subgroup."""
        if H.parent is not self.group:
            raise SuperTheoryError("subgroup belongs to a different group")
        return all((b & H.mask) in (0, b) for b in self.block_masks())

    def validate(self) -> CheckReport:
        """Re-check the defining conditions; sigma against the table's values
        of each sigma_X on every class."""
        rep = CheckReport(f"supercharacter theory of {self.group.label}")
        # disjoint parts covering Irr(G): every character in exactly one
        rep.add("x-partition", sorted(chain(*self.xparts)) == list(range(len(self.table.values))))
        rep.add("identity-block", frozenset({0}) in self.yparts.blocks)
        rep.add("equal-counts", len(self.xparts) == len(self.yparts.blocks))
        detail = ""
        for xi, part in enumerate(self.xparts):
            vals = _sigma_class_values(self.table, part)
            bad = [yi for yi, classes in enumerate(self.ypart_classes)
                   if any(vals[c] != self.sigma[xi][yi] for c in classes)]
            if bad:
                detail = f"sigma_{xi} is not constant on block {bad[0]}"
                break
        rep.add("sigma-constant", not detail, detail)
        ok = all(
            self.sigma[xi][0] == sum(self.table.degrees[t] ** 2 for t in part)
            for xi, part in enumerate(self.xparts)
        )
        rep.add("degree-norm", ok, "sigma(1) must equal the squared norm of its part")
        return rep

    def xparts_json(self):
        return [sorted(p) for p in self.xparts]

    def to_json(self):
        return {
            "group": self.group.label,
            "xparts": self.xparts_json(),
            "yparts": self.yparts.to_json(),
            "sigma": [[str(v) for v in row] for row in self.sigma],
        }

    def to_text(self) -> str:
        lines = [f"supercharacter theory of {self.group.label}: {self.n_parts} parts"]
        for i, part in enumerate(self.xparts):
            lines.append(f"  X{i} = characters {sorted(part)}")
        for i, block in enumerate(self.yparts.blocks):
            lines.append(f"  K{i} = elements {sorted(block)} (size {len(block)})")
        width = max(len(str(v)) for row in self.sigma for v in row)
        header = "  sigma      " + "  ".join(f"K{i}".rjust(width) for i in range(self.n_parts))
        lines.append(header)
        for i, row in enumerate(self.sigma):
            lines.append(f"  sigma_{i:<4d} " + "  ".join(str(v).rjust(width) for v in row))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"SuperTheory({self.group.label}, {self.n_parts} parts)"


class SuperCharacter:
    """One supercharacter sigma_X of a theory, with its exact values."""

    __slots__ = ("theory", "index", "_memo")

    def __init__(self, theory: SuperTheory, index: int):
        self.theory = theory
        self.index = index
        self._memo = {}

    @property
    def part(self) -> frozenset[int]:
        return self.theory.xparts[self.index]

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        return self.theory.sigma[self.index]

    @property
    def degree(self) -> int:
        return self.values[0].integer_value()

    def value_on(self, g: int) -> Cyclotomic:
        return self.values[self.theory.class_of(g)]

    def __repr__(self) -> str:
        return f"SuperCharacter(part={sorted(self.part)}, degree={self.degree})"


# ---------------------------------------------------------------------------
# derivations


@cached
def _packed_values(table: CharacterTable) -> tuple[Packing, list[list[int]], list[list[int]]]:
    """The table's values packed once for the linear sums of derivation, and
    each chi(c) weighted by |c| L / chi(1), L = lcm(degrees), for the keys.
    Such sums need no reduction and, inside the bound, read back exactly, so
    each is an int canonical for its value.  sigma_X weighs chi(1), at most
    sum(degrees) in all; a key over a block weighs |c| L / chi(1) <= |c| L,
    at most L |G| in all."""
    scale = lcm(*table.degrees)
    pk = Packing(table.exponent, chain(*table.values), max(sum(map(abs, table.degrees)), scale * table.group.order))
    packed = [list(map(pk.pack, row)) for row in table.values]
    keyed = [[scale // d * size * v for size, v in zip(table.sizes, row)] for row, d in zip(packed, table.degrees)]
    return pk, packed, keyed


@cached
def _sigma_class_values(table: CharacterTable, part: frozenset[int]) -> tuple[Cyclotomic, ...]:
    """sigma_X on every conjugacy class, computed once per (table, part)."""
    pk, packed, _ = _packed_values(table)
    rows = [[table.degrees[t] * v for v in packed[t]] for t in part]
    return tuple(pk.unpack(sum(col)) for col in zip(*rows))


def _theory(table, xparts, yparts, block_classes) -> SuperTheory | None:
    """The pair (xparts, yparts) with sigma read off the first class of each
    block, or None when it fails validate(), which checks the constancy."""
    sigma = tuple(
        tuple(vals[classes[0]] for classes in block_classes)
        for vals in (_sigma_class_values(table, p) for p in xparts)
    )
    theory = SuperTheory(table, xparts, yparts, tuple(block_classes), sigma)
    return theory if theory.validate().ok else None


def _central_character_keys(table: CharacterTable, block_classes) -> list[tuple[int, ...]]:
    """Per character chi, L sum_{c in B} |c| chi(c) / chi(1) over the blocks B
    as packed ints (see `_packed_values`): equal keys are equal values."""
    return [tuple(sum(row[c] for c in classes) for classes in block_classes) for row in _packed_values(table)[2]]


@cached
def sct_from_class_partition(table: CharacterTable, yparts: ElementPartition) -> SuperTheory | None:
    """Derive the candidate character partition for a given class partition.

    Irreducible characters are grouped by their central-character values on
    the block sums; the resulting pair is then validated in full, so the
    grouping rule is only a candidate generator.  Each (table, partition)
    is derived once: the result, None included, is cached on the table.
    """
    if yparts.n != table.group.order:
        raise SuperTheoryError("partition is over the wrong element set")
    if frozenset({0}) not in yparts.blocks:
        raise SuperTheoryError("the identity must form its own block")
    block_classes = []
    for b in yparts.blocks:
        classes = {table.classes.block_of[x] for x in b}
        if any(not table.classes.blocks[c] <= b for c in classes):
            raise SuperTheoryError("blocks must be unions of conjugacy classes")
        block_classes.append(tuple(sorted(classes)))
    fibers: dict[tuple, list[int]] = {}
    for t, key in enumerate(_central_character_keys(table, block_classes)):
        fibers.setdefault(key, []).append(t)
    if len(fibers) != len(yparts.blocks):
        return None
    xparts = tuple(sorted((frozenset(ts) for ts in fibers.values()), key=min))
    return _theory(table, xparts, yparts, block_classes)


def finest(table: CharacterTable) -> SuperTheory:
    """m(G): singleton character parts, conjugacy classes as superclasses."""
    theory = sct_from_class_partition(table, table.classes)
    if theory is None:
        raise ConsistencyError("the finest partition must always be a theory")
    return theory


def coarsest(table: CharacterTable) -> SuperTheory:
    """The two-part theory ({principal}, rest), superclasses {1} and G - {1};
    needs |G| >= 2."""
    order = table.group.order
    if order < 2:
        raise SuperTheoryError("the coarsest theory needs a nontrivial group")
    theory = sct_from_class_partition(table, ElementPartition(order, [{0}, set(range(1, order))]))
    if theory is None:
        raise ConsistencyError("the coarsest partition must always be a theory")
    return theory


def _central_schur_rings(table: CharacterTable):
    """Every central Schur ring of the group, as a list of class-index blocks:
    the partitions of the conjugacy classes with {0} a block, closed under
    inversion, where every product of two block sums has integer class
    coefficients constant on each block.  Blocks are placed whole, each with
    the smallest class not yet placed and together with its inverse block;
    its other classes must agree with that class in every product so far.
    Only blocks equal to their inverse or disjoint from it are built, and
    those with a constant square are placed by (size, classes), their other
    products built one at a time until one is not constant.
    """
    G = table.group
    if G.order > 255:
        raise ConsistencyError(f"the class constants of a group of order {G.order} do not fit in bytes")
    # Byte k of packed[i][j] is a[i][j][k].  Byte k of a sum of them over B x C
    # counts the pairs (x, y) in B x C with xy = rep_k; x fixes y, so it is at
    # most |G| < 256 and never carries into byte k + 1.
    packed = [[int.from_bytes(bytes(line), "little") for line in plane] for plane in class_mult_coefficients(G)]
    m = len(packed)
    inv = [table.classes.block_of[G.inv[rep]] for rep in table.reps]

    def product(B, C):
        return sum(packed[i][j] for i in B for j in C)

    def constant(P, blocks):
        return all(P[k] == P[b[0]] for b in blocks for k in b[1:])

    def grow(blocks, base, slots, closed):
        # the blocks of base with at most one unit of each slot added whose
        # square is constant, with that square; the class algebra is
        # commutative, so (B + u)^2 = B^2 + 2Bu + u^2
        found = [(base, product(base, base))]
        for slot in slots:
            found += [(B + u, S + 2 * product(B, u) + product(u, u)) for B, S in found for u in slot]
        for B, S in found:
            new = [B] if closed else [B, tuple(inv[x] for x in B)]
            if constant(S := S.to_bytes(m, "little"), blocks + new):
                yield [tuple(sorted(X)) for X in new], S

    def search(blocks, products, free):
        if not free:
            yield blocks
            return
        c = free[0]
        rest = [u for u in free[1:] if all(P[u] == P[c] for P in products)]
        orbits = {}
        for u in rest:
            orbits.setdefault(frozenset((u, inv[u])), []).append(u)
        own = orbits.pop(frozenset((c, inv[c])), [])
        squared = []
        if inv[c] == c or own:  # equal to the inverse: c's orbit and whole orbits of rest
            squared += grow(blocks, (c, *own), [[tuple(o)] for k, o in orbits.items() if len(o) == len(k)], True)
        if inv[c] != c:  # disjoint from the inverse: c and one class of some orbits of two
            squared += grow(blocks, (c,), [[(u,) for u in o] for k, o in orbits.items() if len(k) == 2], False)
        for new, square in sorted(squared, key=lambda t: (len(t[0][0]), t[0][0])):
            grown, fresh = blocks + new, [square]
            # every product so far is constant on B, which agrees with c, so on
            # Bi too: (XY)(g^-1) = (X^-1 Y^-1)(g), also a product so far.  Left are
            # the new blocks times the placed ones, each unordered pair once, B^2
            # (fresh[0]) first; a product with {0} is the other block
            for X, Y in [(X, Y) for i, X in enumerate(new) for Y in (X, *grown[1:len(blocks) + i])][1:]:
                fresh.append(product(X, Y).to_bytes(m, "little"))
                if not constant(fresh[-1], grown):
                    break
            else:
                yield from search(grown, products + fresh, [u for u in free if u not in new[0] + new[-1]])

    yield from search([(0,)], [], list(range(1, m)))


def enumerate_scts(table: CharacterTable) -> list[SuperTheory]:
    """All supercharacter theories of the group, found from the class side.

    They correspond one to one with central Schur rings (Hendrickson, Comm.
    Algebra 2012), which `_central_schur_rings` lists from the integer class
    constants; each is derived and validated in full by
    `sct_from_class_partition`.  The number of conjugacy classes, which
    equals |Irr(G)|, is at most MAX_CLASSES.
    """
    m = table.n_classes
    if m > MAX_CLASSES:
        raise SuperTheoryError(f"{m} irreducible characters exceed the enumeration guard {MAX_CLASSES}")
    found = []
    for blocks in _central_schur_rings(table):
        yparts = ElementPartition(
            table.group.order,
            [set().union(*(table.classes.blocks[c] for c in b)) for b in blocks],
        )
        theory = sct_from_class_partition(table, yparts)
        if theory is None:
            raise ConsistencyError("a central Schur ring failed to derive a theory")
        found.append(theory)
    found.sort(key=lambda s: (-s.n_parts, tuple(tuple(sorted(p)) for p in s.xparts)))
    return found


# ---------------------------------------------------------------------------
# orthogonality


@cached
def sigma_orthogonality(S: SuperTheory) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The failing pairs of <sigma_i, sigma_j> = delta_ij ||X_i||^2 and of
    sum_i sigma_i(g) conj(sigma_i(h)) / sigma_i(1) = delta_kl |G| / |K_k|
    (g in K_k, h in K_l), computed once per theory."""
    norms = [sum(S.table.degrees[t] ** 2 for t in part) for part in S.xparts]
    return orthogonality(S.table.exponent, S.sigma, S.block_sizes(), [row[0].integer_value() for row in S.sigma], norms)


# ---------------------------------------------------------------------------
# induced theories


def require_s_normal(S: SuperTheory, H: SubgroupSet) -> None:
    if not S.is_s_normal(H):
        raise SuperTheoryError(
            f"subgroup {sorted(H.members)} is not a union of superclasses"
        )


@cached
def deflation(S: SuperTheory, N: SubgroupSet) -> SuperTheory:
    """S^{G/N}, the induced theory on G/N, derived on the table of G/N.

    For S-normal N the images of the superclasses of S alone fix a theory
    of G/N (Hendrickson, Comm. Algebra 2012), derived and validated in full
    on `character_table_of(G/N)`, the table of G inflated and kept in its
    field.  Equal deflations of theories of one table are one object; a
    deflation of a deflation lives on its own quotient of a quotient.
    S^{G/{1}} is S.
    A theory on another table of G (ingested, or a Dixon table made
    directly) deflates onto that same table of G/N; nothing in the package
    deflates one.
    """
    require_s_normal(S, N)
    if len(N) == 1:
        return S
    Q, proj = quotient_group(S.group, N)
    try:
        yparts = ElementPartition(Q.order, {frozenset(proj[g] for g in b) for b in S.yparts.blocks})
    except GroupConstructionError as exc:
        raise ConsistencyError("projected superclasses do not form a partition") from exc
    theory = sct_from_class_partition(character_table_of(Q), yparts)
    if theory is None:
        raise ConsistencyError("the projected superclasses do not derive a theory of the quotient")
    return theory


# ---------------------------------------------------------------------------
# products


@cached
def non_coset_union(S: SuperTheory, M: SubgroupSet, N: SubgroupSet) -> frozenset[int] | None:
    """The first superclass outside N that is not a union of M-cosets, or
    None when every one is (the coset-product condition; M <= N)."""
    require_s_normal(S, N)
    require_s_normal(S, M)
    if not M.members <= N.members:
        raise SuperTheoryError("the coset-product condition needs M <= N")
    mul = S.group.mul
    for b in S.yparts.blocks:
        if b & N.members:
            continue
        for g in b:
            row = mul[g]
            if any(row[m] not in b for m in M.members):
                return b
    return None


def is_delta_product(S: SuperTheory, M: SubgroupSet, N: SubgroupSet) -> bool:
    """True when every superclass outside N is a union of M-cosets (M <= N);
    at M = N this is the star-product condition over N."""
    return non_coset_union(S, M, N) is None


def star_construct(S: SuperTheory, N: SubgroupSet) -> SuperTheory:
    """The coarsening whose superclasses are the S-classes inside N together
    with the full inverse images of the nonidentity deflated classes;
    coarser than S by construction, since an S-class outside N lies in the
    inverse image of its own image."""
    require_s_normal(S, N)
    defl = deflation(S, N)
    _, proj = quotient_group(S.group, N)
    blocks = [b for b in S.yparts.blocks if b <= N.members]
    for bq in defl.yparts.blocks:
        if 0 in bq:
            continue
        blocks.append(frozenset(g for g in range(S.group.order) if proj[g] in bq))
    theory = sct_from_class_partition(S.table, ElementPartition(S.group.order, blocks))
    if theory is None:
        raise ConsistencyError("the coset-product construction must validate")
    return theory
