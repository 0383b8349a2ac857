import itertools
from pathlib import Path

import pytest

from superchar.errors import GroupConstructionError
from superchar.groups import (
    ElementPartition,
    GroupTable,
    SubgroupSet,
    build_group,
    catalog_group,
    conjugacy_classes,
    full_subgroup,
    generated_subgroup,
    group_from_table_text,
    normal_subgroups,
    permutation_group,
    quotient_group,
    subgroup_product,
    trivial_subgroup,
)
from superchar.verifier import DEFAULT_CATALOG
from lattice_oracle import derived_subgroup, element_product, group_center

DATA = Path(__file__).parent / "data"


def brute_force_classes(G):
    seen = set()
    blocks = []
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {G.mul[G.mul[h][g]][G.inv[h]] for h in range(G.order)}
        seen |= orbit
        blocks.append(frozenset(orbit))
    return set(blocks)


def test_c2_catalog():
    G = catalog_group("C2")
    assert G.order == 2 and G.mul[1][1] == 0


@pytest.mark.parametrize(
    "name,order,n_classes",
    [
        ("C4", 4, 4),
        ("C6", 6, 6),
        ("S3", 6, 3),
        ("D4", 8, 5),
        ("Q8", 8, 5),
        ("A4", 12, 4),
        ("S4", 24, 5),
        ("C2xC2", 4, 4),
        ("C2xC2xC2", 8, 8),
        ("D5", 10, 4),
        ("D6", 12, 6),
        ("D8", 16, 7),
        ("Q16", 16, 7),
        ("C3xC3", 9, 9),
    ],
)
def test_catalog_orders_and_classes(name, order, n_classes):
    G = catalog_group(name)
    assert G.order == order
    classes = conjugacy_classes(G)
    assert len(classes) == n_classes
    assert set(classes.blocks) == brute_force_classes(G)
    assert classes.blocks[0] == frozenset({0})


def test_class_block_order_is_canonical():
    G = catalog_group("S3")
    classes = conjugacy_classes(G)
    mins = [min(b) for b in classes.blocks]
    assert mins == sorted(mins) and mins[0] == 0


def test_unknown_catalog_name():
    for bad in ("X5", "S9", "Q6", "C0", "A5"):
        with pytest.raises(GroupConstructionError):
            catalog_group(bad)


def test_exponents():
    assert catalog_group("Q8").exponent() == 4
    assert catalog_group("S4").exponent() == 12
    assert catalog_group("C3xC3").exponent() == 3


def test_permutation_generators_d4():
    G = permutation_group(["(1 2 3 4)", "(1 3)"])
    assert G.order == 8
    classes = conjugacy_classes(G)
    assert sorted(len(b) for b in classes.blocks) == [1, 1, 2, 2, 2]
    center = group_center(G)
    assert len(center) == 2


def test_permutation_parser_rejects_garbage():
    with pytest.raises(GroupConstructionError):
        permutation_group(["(1 2 3"])
    with pytest.raises(GroupConstructionError):
        permutation_group(["(1 1 2)"])
    with pytest.raises(GroupConstructionError):
        permutation_group([])
    # the cycles of a line must be disjoint: a later cycle must not overwrite
    # an earlier one, so (1 2)(1 2) is not read as a transposition
    for line in ("(1 2)(1 2)", "(1 2)(1 3)", "(1 2 3)(3 2 1)"):
        with pytest.raises(GroupConstructionError, match="occurs twice"):
            permutation_group([line])


def test_permutation_points_are_renumbered_in_increasing_order():
    # points that occur nowhere are fixed by every element and are dropped;
    # the lexicographic element order, and so the table, does not change
    assert permutation_group(["(1 99999999999)"]).mul == permutation_group(["(1 2)"]).mul
    assert permutation_group(["(3 6 9)", "(1 2)"]).mul == permutation_group(["(3 4 5)", "(1 2)"]).mul
    assert permutation_group(["(2 4)(5 7)", "(2 5)"]).mul == permutation_group(["(1 2)(3 4)", "(1 3)"]).mul


def test_generated_subgroup_examples():
    G = catalog_group("S3")
    assert generated_subgroup(G, []).sorted_members() == (0,)
    A3 = generated_subgroup(G, [3])
    assert len(A3) == 3
    q8 = catalog_group("Q8")
    assert generated_subgroup(q8, [1]).sorted_members() == (0, 1)


def test_generated_subgroup_monotone_and_idempotent():
    G = catalog_group("D4")
    seeds = [set(), {1}, {1, 4}, {2}, {2, 5}]
    for small, large in itertools.combinations(seeds, 2):
        if small <= large:
            assert (
                generated_subgroup(G, small).members
                <= generated_subgroup(G, large).members
            )
    for seed in seeds:
        H = generated_subgroup(G, seed)
        assert generated_subgroup(G, H.members) == H


def test_trivial_and_full_subgroups_are_built_once_per_group():
    G = catalog_group("S4")
    assert trivial_subgroup(G) is trivial_subgroup(G)
    assert full_subgroup(G) is full_subgroup(G)
    assert trivial_subgroup(G).sorted_members() == (0,)
    assert len(full_subgroup(G)) == 24
    assert full_subgroup(catalog_group("S4")) is not full_subgroup(G)


def test_subgroupset_validation():
    G = catalog_group("S3")
    with pytest.raises(GroupConstructionError):
        SubgroupSet(G, [1, 2])  # no identity
    with pytest.raises(GroupConstructionError):
        SubgroupSet(G, [0, 1, 3])  # not closed
    C2 = catalog_group("C2")
    for members in ([0, 1, 5], [0, -2], [0, -1]):  # -1 must not index the table from its end
        with pytest.raises(GroupConstructionError, match="outside 0..1"):
            SubgroupSet(C2, members)


def test_rebuilding_a_subgroup_returns_the_object_its_group_holds():
    assert "__eq__" not in vars(SubgroupSet) and SubgroupSet.__hash__ is object.__hash__
    for name in DEFAULT_CATALOG:
        G = catalog_group(name)
        groups = [G, *dict.fromkeys(quotient_group(G, N)[0] for N in normal_subgroups(G))]
        for Q in groups:
            for H in normal_subgroups(Q):
                assert SubgroupSet(Q, sorted(H.members)) is H
            assert SubgroupSet(Q, range(Q.order)) is full_subgroup(Q)
            assert SubgroupSet(Q, [0]) is trivial_subgroup(Q)
    S3 = catalog_group("S3")
    C2 = generated_subgroup(S3, [1])  # not normal, so in no lattice
    assert not C2.is_normal() and C2 not in normal_subgroups(S3)
    assert generated_subgroup(S3, [1]) is C2 is SubgroupSet(S3, [1, 0])
    assert SubgroupSet(catalog_group("S3"), [0, 1]) is not C2  # each group holds its own


def test_quotients():
    G = catalog_group("S3")
    A3 = generated_subgroup(G, [3])
    Q, proj = quotient_group(G, A3)
    assert Q.order == 2 and proj[0] == 0
    assert all(proj[G.mul[a][b]] == Q.mul[proj[a]][proj[b]]
               for a in range(6) for b in range(6))
    whole, _ = quotient_group(G, full_subgroup(G))
    assert whole.order == 1
    q8 = catalog_group("Q8")
    V4, _ = quotient_group(q8, SubgroupSet(q8, [0, 1]))
    assert V4.order == 4 and all(V4.mul[g][g] == 0 for g in range(4))
    with pytest.raises(GroupConstructionError):
        quotient_group(G, SubgroupSet(G, [0, 1]))  # <transposition> is not normal


def test_quotient_size_identity():
    G = catalog_group("D6")
    for seed in ([], [1], [6], [2]):
        N = generated_subgroup(G, seed)
        if not N.is_normal():
            continue
        Q, proj = quotient_group(G, N)
        assert Q.order * len(N) == G.order
        assert sorted(set(proj)) == list(range(Q.order))


def test_subgroup_product():
    # subgroup_product is the join of two normal subgroups; the product of a
    # normal and a non-normal subgroup is taken element by element by the oracle
    G = catalog_group("S3")
    A3 = generated_subgroup(G, [3])
    t = generated_subgroup(G, [1])
    assert element_product(G, A3, t) == full_subgroup(G)
    assert subgroup_product(G, A3, full_subgroup(G)) == full_subgroup(G)
    assert subgroup_product(G, A3, trivial_subgroup(G)) == A3
    q8 = catalog_group("Q8")
    i_sub = generated_subgroup(q8, [2])
    j_sub = generated_subgroup(q8, [4])
    assert subgroup_product(q8, i_sub, j_sub) == full_subgroup(q8)
    with pytest.raises(GroupConstructionError):
        subgroup_product(G, generated_subgroup(G, [1]), generated_subgroup(G, [2]))
    with pytest.raises(GroupConstructionError):
        element_product(G, generated_subgroup(G, [1]), generated_subgroup(G, [2]))


def test_center_and_derived():
    q8 = catalog_group("Q8")
    assert group_center(q8).sorted_members() == (0, 1)
    assert derived_subgroup(q8).sorted_members() == (0, 1)
    s3 = catalog_group("S3")
    assert len(group_center(s3)) == 1
    assert len(derived_subgroup(s3)) == 3


def test_table_file_round_trip():
    G = build_group(f"file:{DATA / 'group_c4.txt'}")
    assert G.order == 4
    assert conjugacy_classes(G).blocks == conjugacy_classes(catalog_group("C4")).blocks


def test_nonassociative_table_rejected():
    text = (DATA / "group_nonassoc.txt").read_text()
    with pytest.raises(GroupConstructionError, match="associativity"):
        group_from_table_text(text)


def test_nonlatin_table_rejected():
    text = (DATA / "group_nonlatin.txt").read_text()
    with pytest.raises(GroupConstructionError):
        group_from_table_text(text)


def test_malformed_table_files():
    with pytest.raises(GroupConstructionError):
        group_from_table_text("3\n0 1 2\n")
    with pytest.raises(GroupConstructionError):
        group_from_table_text("order 2\n0 1\n")
    with pytest.raises(GroupConstructionError):
        group_from_table_text("order 2\n0 1\n1 x\n")


def test_identity_must_be_zero():
    with pytest.raises(GroupConstructionError):
        GroupTable([[1, 0], [0, 1]])


def test_element_partition_validation():
    with pytest.raises(GroupConstructionError):
        ElementPartition(3, [{0, 1}])
    with pytest.raises(GroupConstructionError):
        ElementPartition(3, [{0, 1}, {1, 2}])
    part = ElementPartition(4, [{2, 3}, {0}, {1}])
    assert part.blocks[0] == frozenset({0})
    assert part.block_of[3] == 2


def test_build_group_perm_file():
    G = build_group(f"perm:{DATA / 'perm_d4.txt'}")
    assert G.order == 8
