"""Test-only oracles: subgroup work one element set at a time.

The package reads V(S|N), U(S|N) and products of normal subgroups off the
normal-subgroup lattice of the group, and takes a quotient of a quotient
to be the first-level quotient.  These are the bodies it ran before, kept
here as slow references: subgroups are generated or multiplied element by
element, every quotient is built from its cosets, and the classical center
and commutator subgroup are found from the multiplication table.  A
deflation is derived on the table inflated from the theory's own table,
so for a deflation of a deflation the table of G/L is inflated in two
steps, where the package inflates it from the table of G in one.
"""

from superchar.chartab import quotient_character_table
from superchar.errors import ConsistencyError, GroupConstructionError
from superchar.groups import ElementPartition, GroupTable, SubgroupSet, generated_subgroup, quotient_group
from superchar.structure import irr_over, s_normal_subgroups
from superchar.supertheory import sct_from_class_partition


def element_product(G, A, B) -> SubgroupSet:
    """The product set AB, which must again be a subgroup."""
    prod = {G.mul[a][b] for a in A.members for b in B.members}
    try:
        return SubgroupSet(G, prod)
    except GroupConstructionError as exc:
        raise GroupConstructionError(
            f"product of subgroups is not a subgroup ({len(prod)} elements)"
        ) from exc


def oracle_v_rel(S, N) -> SubgroupSet:
    """V(S|N), generated from the nonvanishing sets of Irr(S|N)."""
    gens = set()
    for sigma in irr_over(S, N):
        gens.update(*(b for b, v in zip(S.yparts.blocks, sigma.values) if not v.is_zero()))
    return generated_subgroup(S.group, gens)


def oracle_u_rel(S, N) -> SubgroupSet:
    """U(S|N) by its definition: the product of every S-normal H with
    V(S|H) <= N, asking for V(S|H) once per H."""
    total = SubgroupSet(S.group, [0])
    for H in s_normal_subgroups(S):
        if oracle_v_rel(S, H).members <= N.members:
            total = element_product(S.group, total, H)
    return total


def derived_deflation(S, N):
    """S^{G/N} derived from the images of the superclasses on the inflated
    quotient table, then validated in full."""
    Q, proj = quotient_group(S.group, N)
    images = {frozenset(proj[g] for g in b) for b in S.yparts.blocks}
    theory = sct_from_class_partition(
        quotient_character_table(S.table, N), ElementPartition(Q.order, images)
    )
    if theory is None or not theory.validate().ok:
        raise ConsistencyError("deflation produced an invalid theory")
    return theory


def fresh_quotient(G, N):
    """G/N as a new group built from the cosets of N, numbered by least
    member, with its projection."""
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] == -1:
            for n in N.members:
                coset_of[G.mul[g][n]] = len(reps)
            reps.append(g)
    proj = tuple(coset_of)
    Q = GroupTable([[proj[G.mul[a][b]] for b in reps] for a in reps], label=f"{G.label}/H{len(N)}")
    return Q, proj


def group_center(G: GroupTable) -> SubgroupSet:
    """The classical center {g : gh = hg for all h}."""
    members = [
        g
        for g in range(G.order)
        if all(G.mul[g][h] == G.mul[h][g] for h in range(G.order))
    ]
    return SubgroupSet(G, members)


def derived_subgroup(G: GroupTable) -> SubgroupSet:
    """The classical commutator subgroup."""
    comms = {
        G.mul[G.mul[G.inv[a]][G.inv[b]]][G.mul[a][b]]
        for a in range(G.order)
        for b in range(G.order)
    }
    return generated_subgroup(G, comms)
