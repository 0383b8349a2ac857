"""Test-only oracle: S-normal subgroups by walking subsets of superclasses.

Every one of the 2^(b-1) sets of superclasses that contain {1} is tested
for closure blockwise, using the fact that products of superclasses are
unions of superclasses.  This is the search `s_normal_subgroups` ran
before it read the normal-subgroup lattice of the group, kept here as a
slow reference for it.
"""

from superchar.groups import SubgroupSet


def walked_s_normal_subgroups(S) -> tuple[SubgroupSet, ...]:
    """All unions of superclasses that are subgroups, smallest first."""
    blocks = S.yparts.blocks
    b = len(blocks)
    G = S.group
    products = [
        [frozenset(S.yparts.block_of[G.mul[x][y]] for x in bi for y in bj) for bj in blocks]
        for bi in blocks
    ]
    sizes = [len(bk) for bk in blocks]
    found = []
    for mask in range(1 << (b - 1)):
        chosen = [0] + [i + 1 for i in range(b - 1) if mask >> i & 1]
        if G.order % sum(sizes[i] for i in chosen):
            continue
        chosen_set = frozenset(chosen)
        if all(products[i][j] <= chosen_set for i in chosen for j in chosen):
            found.append(SubgroupSet(G, set().union(*(blocks[i] for i in chosen))))
    found.sort(key=lambda H: (len(H), H.sorted_members()))
    return tuple(found)
