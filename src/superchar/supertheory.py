"""Supercharacter theories: validated partition pairs and their transforms.

A supercharacter theory of G is a pair (X, Y) where X partitions the
irreducible characters, Y partitions the elements, {1} is a Y-block,
|X| = |Y|, and each sigma_X = sum_{chi in X} chi(1) chi is constant on
every Y-block.  Everything here works with exact cyclotomic values, so
"constant" and "zero" are never tolerance tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations

from .chartab import CharacterTable, character_table_of, class_mult_coefficients
from .cyclotomic import Cyclotomic, hermitian_term
from .errors import ConsistencyError, GroupConstructionError, SuperTheoryError
from .groups import (
    ElementPartition,
    GroupTable,
    SubgroupSet,
    quotient_group,
    subgroup_group,
)
from .reports import CheckReport

DEFAULT_MAX_PARTS = 12  # bound on the conjugacy classes (= |Irr(G)|) enumerate_scts takes
MAX_PARTS_ENV = "SUPERCHAR_MAX_BELL"


class SuperTheory:
    """A validated supercharacter theory of a finite group.

    Instances are immutable; build them through the derivation functions
    below rather than directly.  The `_memo` dict caches derived data
    (S-normal subgroups, deflations, vanishing subgroups, ...) and is an
    implementation detail.
    """

    __slots__ = ("table", "xparts", "yparts", "ypart_classes", "sigma", "_memo")

    def __init__(self, table, xparts, yparts, ypart_classes, sigma):
        self.table = table
        self.xparts = xparts
        self.yparts = yparts
        self.ypart_classes = ypart_classes
        self.sigma = sigma
        self._memo = {}

    @property
    def group(self) -> GroupTable:
        return self.table.group

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

    def supercharacters(self) -> tuple["SuperCharacter", ...]:
        if "supercharacters" not in self._memo:
            self._memo["supercharacters"] = tuple(
                SuperCharacter(self, i) for i in range(self.n_parts)
            )
        return self._memo["supercharacters"]

    def is_s_normal(self, H: SubgroupSet) -> bool:
        """True when H is a union of superclasses."""
        if H.parent is not self.group:
            raise SuperTheoryError("subgroup belongs to a different group")
        return all(b <= H.members for b in self.yparts.blocks if b & H.members)

    def validate(self) -> CheckReport:
        """Re-check the defining conditions; sigma against the table's values
        of each sigma_X on every class."""
        rep = CheckReport(f"supercharacter theory of {self.group.label}")
        m = len(self.table.values)
        seen: set[int] = set()
        disjoint = True
        for part in self.xparts:
            if part & seen:
                disjoint = False
            seen |= part
        rep.add("x-partition", disjoint and seen == set(range(m)))
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperTheory)
            and other.table is self.table
            and other.xparts == self.xparts
            and other.yparts == self.yparts
        )

    def __hash__(self):
        return hash((id(self.table), self.xparts, self.yparts))

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

    __slots__ = ("theory", "index")

    def __init__(self, theory: SuperTheory, index: int):
        self.theory = theory
        self.index = index

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

    def is_principal(self) -> bool:
        return self.part == frozenset({0})

    def __repr__(self) -> str:
        return f"SuperCharacter(part={sorted(self.part)}, degree={self.degree})"


# ---------------------------------------------------------------------------
# derivations


def _canonical_xparts(xparts, n_chars: int) -> tuple[frozenset[int], ...]:
    parts = [frozenset(int(t) for t in p) for p in xparts]
    seen: set[int] = set()
    for p in parts:
        if not p:
            raise SuperTheoryError("empty character part")
        if p & seen:
            raise SuperTheoryError("character parts overlap")
        seen |= p
    if seen != set(range(n_chars)):
        raise SuperTheoryError("character parts must cover all irreducible characters")
    return tuple(sorted(parts, key=min))


def _sigma_class_values(table: CharacterTable, part) -> tuple[Cyclotomic, ...]:
    """sigma_X on every conjugacy class, computed once per (table, part)."""
    key = ("sigma", frozenset(part))
    if key not in table._memo:
        out = []
        for k in range(table.n_classes):
            acc = Cyclotomic.zero(table.exponent)
            for t in part:
                acc = acc + table.degrees[t] * table.values[t][k]
            out.append(acc)
        table._memo[key] = tuple(out)
    return table._memo[key]


def _theory(table, xparts, yparts, block_classes) -> SuperTheory | None:
    """The pair (xparts, yparts) with sigma read off the first class of each
    block, or None when it fails validate(), which checks the constancy."""
    sigma = tuple(
        tuple(vals[classes[0]] for classes in block_classes)
        for vals in (_sigma_class_values(table, p) for p in xparts)
    )
    theory = SuperTheory(table, xparts, yparts, tuple(block_classes), sigma)
    return theory if theory.validate().ok else None


def sct_from_character_partition(table: CharacterTable, xparts) -> SuperTheory | None:
    """Derive the unique candidate theory with the given character partition.

    The superclass partition must refine the common level sets of the
    sigma_X, and equal cardinality forces equality, so the level sets are
    the only candidate.  Returns None when they fail the axioms.
    """
    parts = _canonical_xparts(xparts, len(table.values))
    rows = [_sigma_class_values(table, p) for p in parts]
    signatures = [tuple(rows[x][k].key() for x in range(len(parts))) for k in range(table.n_classes)]
    groups: dict[tuple, list[int]] = {}
    for k, sig in enumerate(signatures):
        groups.setdefault(sig, []).append(k)
    if len(groups) != len(parts):
        return None
    if len(groups[signatures[0]]) != 1:
        return None
    yparts = ElementPartition(
        table.group.order,
        [set().union(*(table.classes.blocks[c] for c in cls)) for cls in groups.values()],
    )
    block_classes = [
        tuple(sorted({table.classes.block_of[x] for x in b})) for b in yparts.blocks
    ]
    theory = _theory(table, parts, yparts, block_classes)
    if theory is None:
        raise ConsistencyError("the level sets of the sigma_X failed validation")
    return theory


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
    cache_key = ("theory", yparts)
    if cache_key in table._memo:
        return table._memo[cache_key]
    fibers: dict[tuple, list[int]] = {}
    for t in range(len(table.values)):
        key = []
        for classes in block_classes:
            acc = Cyclotomic.zero(table.exponent)
            for c in classes:
                acc = acc + table.sizes[c] * table.values[t][c]
            key.append((acc / table.degrees[t]).key())
        fibers.setdefault(tuple(key), []).append(t)
    theory = None
    if len(fibers) == len(yparts.blocks):
        xparts = tuple(sorted((frozenset(ts) for ts in fibers.values()), key=min))
        theory = _theory(table, xparts, yparts, block_classes)
    table._memo[cache_key] = theory
    return theory


def finest(table: CharacterTable) -> SuperTheory:
    """m(G): singleton character parts, conjugacy classes as superclasses."""
    theory = sct_from_character_partition(
        table, [{t} for t in range(len(table.values))]
    )
    if theory is None:
        raise ConsistencyError("the finest partition must always be a theory")
    return theory


def coarsest(table: CharacterTable) -> SuperTheory:
    """The two-part theory ({principal}, rest); needs |G| >= 2."""
    if table.group.order < 2:
        raise SuperTheoryError("the coarsest theory needs a nontrivial group")
    theory = sct_from_character_partition(
        table, [{0}, set(range(1, len(table.values)))]
    )
    if theory is None:
        raise ConsistencyError("the coarsest partition must always be a theory")
    return theory


def _max_parts_guard(override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(MAX_PARTS_ENV)
    if raw is None:
        return DEFAULT_MAX_PARTS
    try:
        guard = int(raw)
    except ValueError:
        guard = 0
    if guard < 1:
        raise SuperTheoryError(f"{MAX_PARTS_ENV} must be a positive integer, got {raw!r}")
    return guard


def _central_schur_rings(table: CharacterTable):
    """Every central Schur ring of the group, as a list of class-index blocks:
    the partitions of the conjugacy classes with {0} a block, closed under
    inversion, where every product of two block sums has integer class
    coefficients constant on each block.  Blocks are placed whole, each with
    the smallest class not yet placed and together with its inverse block;
    its other classes must agree with that class in every product so far.
    """
    a = class_mult_coefficients(table.group)
    inv = [table.classes.block_of[table.group.inv[rep]] for rep in table.reps]

    def product(B, C):
        return [sum(a[i][j][k] for i in B for j in C) for k in range(len(a))]

    def constant(P, blocks):
        return all(P[k] == P[b[0]] for b in blocks for k in b[1:])

    def search(blocks, products, free):
        if not free:
            yield blocks
            return
        c = free[0]
        rest = [u for u in free[1:] if all(P[u] == P[c] for P in products)]
        for n in range(len(rest) + 1):
            for extra in combinations(rest, n):
                B = (c,) + extra
                Bi = tuple(sorted(inv[x] for x in B))
                if Bi != B and not set(Bi).isdisjoint(B):
                    continue
                new = [B] if Bi == B else [B, Bi]
                grown = blocks + new
                # the new blocks times every placed block, each unordered pair once
                fresh = [product(X, Y) for i, X in enumerate(new) for Y in grown[:len(blocks) + i + 1]]
                if all(constant(P, new) for P in products) and all(constant(P, grown) for P in fresh):
                    placed = set(B).union(Bi)
                    yield from search(grown, products + fresh, [u for u in free if u not in placed])

    yield from search([(0,)], [product((0,), (0,))], list(range(1, len(a))))


def enumerate_scts(table: CharacterTable, max_parts: int | None = None) -> list[SuperTheory]:
    """All supercharacter theories of the group, found from the class side.

    They correspond one to one with central Schur rings (Hendrickson, Comm.
    Algebra 2012), which `_central_schur_rings` lists from the integer class
    constants; each is derived and validated in full by
    `sct_from_class_partition`.  The number of conjugacy classes, which
    equals |Irr(G)|, is guarded (default 12, override via the
    SUPERCHAR_MAX_BELL environment variable or `max_parts`).
    """
    m = table.n_classes
    guard = _max_parts_guard(max_parts)
    if m > guard:
        raise SuperTheoryError(f"{m} irreducible characters exceed the enumeration guard {guard}")
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


def check_row_orthogonality(S: SuperTheory) -> CheckReport:
    """<sigma_i, sigma_j> = delta_ij * ||X_i||^2, exactly, for all pairs."""
    rep = CheckReport(f"row orthogonality for a theory of {S.group.label}")
    order = S.group.order
    sizes = S.block_sizes()
    for i in range(S.n_parts):
        norm2 = sum(S.table.degrees[t] ** 2 for t in S.xparts[i])
        for j in range(i, S.n_parts):
            acc = Cyclotomic.zero(S.table.exponent)
            for k in range(S.n_parts):
                acc = acc + sizes[k] * hermitian_term(S.sigma[i][k], S.sigma[j][k])
            acc = acc / order
            expected = Fraction(norm2 if i == j else 0)
            rep.add(
                f"pair-{i}-{j}",
                acc == Cyclotomic.from_rational(expected, S.table.exponent),
                f"got {acc}, expected {expected}",
            )
    return rep


def check_column_orthogonality(S: SuperTheory, g: int, h: int):
    """Exact column relation at (g, h): returns (value, expected, ok).
    The rows conjugate(sigma_i) / sigma_i(1) are computed once per theory."""
    if "colorth" not in S._memo:
        S._memo["colorth"] = tuple(
            tuple(v.conjugate() / row[0].rational_value() for v in row) for row in S.sigma
        )
    scaled = S._memo["colorth"]
    acc = Cyclotomic.zero(S.table.exponent)
    kg, kh = S.class_of(g), S.class_of(h)
    for i in range(S.n_parts):
        acc = acc + S.sigma[i][kg] * scaled[i][kh]
    if kg == kh:
        expected = Cyclotomic.from_rational(
            Fraction(S.group.order, len(S.yparts.blocks[kg])), S.table.exponent
        )
    else:
        expected = Cyclotomic.zero(S.table.exponent)
    return acc, expected, acc == expected


# ---------------------------------------------------------------------------
# induced theories


def require_s_normal(S: SuperTheory, H: SubgroupSet) -> None:
    if not S.is_s_normal(H):
        raise SuperTheoryError(
            f"subgroup {sorted(H.members)} is not a union of superclasses"
        )


def restriction(S: SuperTheory, N: SubgroupSet) -> SuperTheory:
    """The induced theory on an S-normal subgroup N; its superclasses are
    exactly the S-classes inside N."""
    require_s_normal(S, N)
    key = ("restriction", N.members)
    if key in S._memo:
        return S._memo[key]
    H, _, to_local = subgroup_group(S.group, N)
    blocks = [
        frozenset(to_local[g] for g in b)
        for b in S.yparts.blocks
        if b <= N.members
    ]
    part = ElementPartition(H.order, blocks)
    theory = sct_from_class_partition(character_table_of(H), part)
    if theory is None:
        raise ConsistencyError("restriction produced an invalid theory")
    S._memo[key] = theory
    return theory


def deflation(S: SuperTheory, N: SubgroupSet) -> SuperTheory:
    """The induced theory on G/N; its superclasses are the images of the
    S-classes under the projection."""
    require_s_normal(S, N)
    key = ("deflation", N.members)
    if key in S._memo:
        return S._memo[key]
    Q, proj = quotient_group(S.group, N)
    images: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for b in S.yparts.blocks:
        img = frozenset(proj[g] for g in b)
        if img not in seen:
            seen.add(img)
            images.append(img)
    try:
        part = ElementPartition(Q.order, images)
    except GroupConstructionError as exc:
        raise ConsistencyError("projected superclasses do not form a partition") from exc
    theory = sct_from_class_partition(character_table_of(Q), part)
    if theory is None:
        raise ConsistencyError("deflation produced an invalid theory")
    S._memo[key] = theory
    return theory


def subquotient(S: SuperTheory, N: SubgroupSet, H: SubgroupSet) -> SuperTheory:
    """The induced theory on N/H for S-normal H <= N: deflate by H, then
    restrict to the image of N."""
    require_s_normal(S, N)
    require_s_normal(S, H)
    if not H.members <= N.members:
        raise SuperTheoryError("subquotient needs H <= N")
    defl = deflation(S, H)
    _, proj = quotient_group(S.group, H)
    image = SubgroupSet(defl.group, {proj[g] for g in N.members})
    return restriction(defl, image)


# ---------------------------------------------------------------------------
# products


def is_star_product(S: SuperTheory, N: SubgroupSet) -> bool:
    """True when every superclass outside N is a union of full N-cosets."""
    require_s_normal(S, N)
    mul = S.group.mul
    for b in S.yparts.blocks:
        if b & N.members:
            continue
        for g in b:
            row = mul[g]
            if any(row[n] not in b for n in N.members):
                return False
    return True


def is_delta_product(S: SuperTheory, M: SubgroupSet, N: SubgroupSet) -> bool:
    """True when every superclass outside N is a union of M-cosets (M <= N)."""
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
                return False
    return True


def star_construct(S: SuperTheory, N: SubgroupSet) -> SuperTheory:
    """The coarsening whose superclasses are the S-classes inside N together
    with the full preimages of the nonidentity deflated classes."""
    require_s_normal(S, N)
    key = ("star", N.members)
    if key in S._memo:
        return S._memo[key]
    defl = deflation(S, N)
    _, proj = quotient_group(S.group, N)
    blocks = [b for b in S.yparts.blocks if b <= N.members]
    for bq in defl.yparts.blocks:
        if 0 in bq:
            continue
        blocks.append(frozenset(g for g in range(S.group.order) if proj[g] in bq))
    part = ElementPartition(S.group.order, blocks)
    for b in S.yparts.blocks:
        if not b <= part.block_containing(min(b)):
            raise ConsistencyError("construction is not coarser than the theory")
    theory = sct_from_class_partition(S.table, part)
    if theory is None:
        raise ConsistencyError("the coset-product construction must validate")
    S._memo[key] = theory
    return theory


def delta_coarsen(S: SuperTheory, M: SubgroupSet, N: SubgroupSet) -> SuperTheory | None:
    """Candidate coarsening by M-coset saturation outside N; None when the
    saturated blocks fail to form a theory."""
    require_s_normal(S, N)
    require_s_normal(S, M)
    if not M.members <= N.members:
        raise SuperTheoryError("delta coarsening needs M <= N")
    mul = S.group.mul
    blocks: list[frozenset[int]] = [b for b in S.yparts.blocks if b & N.members]
    seen: set[frozenset[int]] = set()
    saturated: list[frozenset[int]] = []
    for b in S.yparts.blocks:
        if b & N.members:
            continue
        sat = frozenset(mul[g][m] for g in b for m in M.members)
        if sat not in seen:
            seen.add(sat)
            saturated.append(sat)
    try:
        part = ElementPartition(S.group.order, blocks + saturated)
    except GroupConstructionError:
        return None
    return sct_from_class_partition(S.table, part)
