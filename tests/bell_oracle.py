"""Test-only oracle: supercharacter theories by scanning set partitions of Irr(G).

Every one of the Bell(m) partitions of the m irreducible characters is
screened with exact integer encodings of the scaled character rows; the
survivors are derived with `sct_from_character_partition`.  This is the
search `enumerate_scts` ran before it moved to the class side, kept here
as a slow reference for it, together with the character-side derivation
that `finest` and `coarsest` used before they moved to the class side.
Its sigma_X values are summed on `arith_oracle.Ref`, so its signatures
share nothing with the packed sums and keys of the class-side derivation.
"""

from arith_oracle import key, sigma_class_values
from superchar.errors import ConsistencyError, SuperTheoryError
from superchar.groups import ElementPartition
from superchar.supertheory import _theory


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


def sct_from_character_partition(table, xparts):
    """Derive the unique candidate theory with the given character partition.

    The superclass partition must refine the common level sets of the
    sigma_X, and equal cardinality forces equality, so the level sets are
    the only candidate.  Returns None when they fail the axioms.
    """
    parts = _canonical_xparts(xparts, len(table.values))
    rows = [sigma_class_values(table, p) for p in parts]
    signatures = [tuple(key(rows[x][k]) for x in range(len(parts))) for k in range(table.n_classes)]
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


def iter_set_partitions(m: int, first_singleton: bool = False):
    """All set partitions of 0..m-1 as tuples of blocks; with
    `first_singleton` only those where {0} is a block."""
    if m == 0:
        yield ()
        return
    blocks: list[list[int]] = [[0]]

    def rec(i: int):
        if i == m:
            yield tuple(tuple(b) for b in blocks)
            return
        start = 1 if first_singleton else 0
        for b in blocks[start:]:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def bell_scts(table, assume_principal_singleton: bool = False):
    """All theories, sorted like `enumerate_scts`.  With
    `assume_principal_singleton` the principal character is pinned to a
    singleton part (Diaconis-Isaacs: {1} is always a superclass)."""
    m = len(table.values)
    r = table.n_classes
    # integer encodings of the scaled rows: exact, injective for sums of
    # up to m values since the base exceeds twice any achievable magnitude
    raw = []
    maxc = 1
    for t in range(m):
        row = []
        for k in range(r):
            value = table.values[t][k]
            if value.den != 1:
                raise ConsistencyError("character values must be algebraic integers")
            scaled = [table.degrees[t] * c for c in value.num]
            maxc = max(maxc, *map(abs, scaled))
            row.append(scaled)
        raw.append(row)
    base = 2 * m * maxc + 3
    enc = [
        [sum(c * base**i for i, c in enumerate(vals)) for vals in row]
        for row in raw
    ]
    found = []
    for parts in iter_set_partitions(m, first_singleton=assume_principal_singleton):
        part_sums = [
            [sum(enc[t][k] for t in part) for k in range(r)] for part in parts
        ]
        sigs = [tuple(ps[k] for ps in part_sums) for k in range(r)]
        if len(set(sigs)) != len(parts):
            continue
        if sigs.count(sigs[0]) != 1:
            continue
        theory = sct_from_character_partition(table, [set(p) for p in parts])
        if theory is None:
            raise ConsistencyError("integer screening disagreed with exact derivation")
        found.append(theory)
    found.sort(key=lambda s: (-s.n_parts, tuple(tuple(sorted(p)) for p in s.xparts)))
    return found
