"""Test-only oracle: supercharacter theories by scanning set partitions of Irr(G).

Every one of the Bell(m) partitions of the m irreducible characters is
screened with exact integer encodings of the scaled character rows; the
survivors are derived with `sct_from_character_partition`.  This is the
search `enumerate_scts` ran before it moved to the class side, kept here
as a slow reference for it.
"""

from superchar.errors import ConsistencyError
from superchar.supertheory import sct_from_character_partition


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
            scaled = table.degrees[t] * table.values[t][k]
            if scaled.den != 1:
                raise ConsistencyError("character values must be algebraic integers")
            maxc = max(maxc, *map(abs, scaled.num))
            row.append(scaled.num)
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
