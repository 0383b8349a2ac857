"""Test-only oracle: central Schur rings by the unpacked class-side search.

This is the search `enumerate_scts` ran before its class constants were
packed into ints: every candidate block is built with `combinations` and
tested for inverse closure afterwards, and every product of two block sums
is a Python sum over the class constants, built in full before any is
tested.  It is kept as a slow reference for `supertheory._central_schur_rings`,
together with the derivation keys as they were made before they were read
straight from packed sums: unpacked to values and compared by `key()`.
"""

from itertools import combinations

from arith_oracle import key
from superchar.chartab import CharacterTable, class_mult_coefficients
from superchar.supertheory import _packed_values


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


def unpacked_character_keys(table, block_classes):
    """Per character chi, the `key()`s of sum_{c in B} |c| chi(c) / chi(1)
    over the blocks B, each sum unpacked to its value."""
    pk, packed, _ = _packed_values(table)
    keys = []
    for row, deg in zip(packed, table.degrees):
        sized = [size * v for size, v in zip(table.sizes, row)]
        keys.append(tuple(key(pk.unpack(sum(sized[c] for c in classes), deg)) for classes in block_classes))
    return keys


def fibers(keys):
    """The characters grouped by equal keys, as sorted lists of indices."""
    groups = {}
    for t, key in enumerate(keys):
        groups.setdefault(key, []).append(t)
    return sorted(groups.values())
