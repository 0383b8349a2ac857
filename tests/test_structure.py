import itertools

import pytest

from superchar.chartab import character_table_of
from superchar.errors import SuperTheoryError
from superchar.groups import (
    SubgroupSet,
    catalog_group,
    full_subgroup,
    generated_subgroup,
    quotient_group,
    subgroup_product,
    trivial_subgroup,
)
from superchar.structure import (
    hypercenter,
    irr_over,
    is_s_abelian,
    lower_series,
    normal_subgroups,
    s_center,
    s_commutator,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    super_kernel,
    upper_series,
)
from superchar.supertheory import coarsest, deflation, enumerate_scts, finest
from superchar.verifier import DEFAULT_CATALOG
from lattice_oracle import derived_subgroup, group_center, is_normal
from walk_oracle import walked_s_normal_subgroups


def theory_of(name, kind="finest"):
    G = catalog_group(name)
    T = character_table_of(G)
    return G, (finest(T) if kind == "finest" else coarsest(T))


def all_subgroups_brute(G):
    # independent oracle: close every subset of generators of size <= 3
    found = {frozenset({0}), frozenset(range(G.order))}
    elems = range(1, G.order)
    for k in (1, 2, 3):
        for seed in itertools.combinations(elems, k):
            found.add(generated_subgroup(G, seed).members)
    return found


@pytest.mark.parametrize("name", ["S3", "Q8", "D4", "C6", "A4", "C2xC2xC2xC2"])
def test_s_normal_enumeration_against_brute_force(name):
    G, S = theory_of(name)
    walked = {H.members for H in s_normal_subgroups(S)}
    brute = {
        members
        for members in all_subgroups_brute(G)
        if S.is_s_normal(SubgroupSet(G, members))
    }
    assert walked == brute


@pytest.mark.parametrize("name", ["C2xC2xC2xC2", "S4", "D8", "Q16", "A4", "C3xC3", "D6"])
def test_normal_subgroups_against_brute_force(name, body_runs):
    G = catalog_group(name)
    lattice = normal_subgroups(G)
    brute = {members for members in all_subgroups_brute(G) if is_normal(G, SubgroupSet(G, members))}
    assert {H.members for H in lattice} == brute
    assert list(lattice) == sorted(lattice, key=lambda H: (len(H), H.sorted_members()))
    assert body_runs(normal_subgroups, lambda: normal_subgroups(G)) == 0
    assert normal_subgroups(G) is lattice


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_lattice_filter_matches_the_superclass_walk(name):
    # every theory of the group: the same S-normal subgroups in the same order
    for S in enumerate_scts(character_table_of(catalog_group(name))):
        assert s_normal_subgroups(S) == walked_s_normal_subgroups(S)


def test_s_normal_subgroups_beyond_sixteen_superclasses():
    # C17 and C4xC5 have 17 and 20 classes; the finest theory keeps every
    # normal subgroup, the coarsest only the two trivial ones
    for name, count in (("C17", 2), ("C4xC5", 6)):
        G, S = theory_of(name)
        assert len(s_normal_subgroups(S)) == count
        G, S = theory_of(name, "coarsest")
        assert [len(H) for H in s_normal_subgroups(S)] == [1, G.order]


def test_s_normal_examples():
    G, S = theory_of("S3")
    assert [H.sorted_members() for H in s_normal_subgroups(S)] == [
        (0,),
        (0, 3, 4),
        (0, 1, 2, 3, 4, 5),
    ]
    G, S = theory_of("Q8", "coarsest")
    assert [len(H) for H in s_normal_subgroups(S)] == [1, 8]


def test_is_s_normal():
    G, S = theory_of("S3")
    assert S.is_s_normal(trivial_subgroup(G))
    assert S.is_s_normal(full_subgroup(G))
    assert S.is_s_normal(generated_subgroup(G, [3]))
    assert not S.is_s_normal(generated_subgroup(G, [1]))


def test_center_is_s_normal_everywhere():
    for name in ("S3", "Q8", "D4", "C6"):
        G = catalog_group(name)
        for S in enumerate_scts(character_table_of(G)):
            assert S.is_s_normal(s_center(S))


def test_center_examples():
    G, S = theory_of("C4")
    assert s_center(S) == full_subgroup(G)
    assert is_s_abelian(S)
    G, S = theory_of("C4", "coarsest")
    assert s_center(S).sorted_members() == (0,)
    assert not is_s_abelian(S)
    G, S = theory_of("Q8")
    assert s_center(S).sorted_members() == (0, 1)


def test_finest_center_and_commutator_match_classical():
    for name in ("S3", "Q8", "D4", "A4", "D6", "S4"):
        G, S = theory_of(name)
        assert s_center(S) == group_center(G)
        assert s_commutator_full(S) == derived_subgroup(G)


def test_commutator_examples():
    G, S = theory_of("C2xC2")
    assert s_commutator_full(S).sorted_members() == (0,)
    G, S = theory_of("S3")
    assert s_commutator_full(S).sorted_members() == (0, 3, 4)
    G, S = theory_of("S3", "coarsest")
    assert len(s_commutator_full(S)) == 6


def test_commutator_of_smaller_subgroup():
    G, S = theory_of("Q8")
    Z = SubgroupSet(G, [0, 1])
    assert s_commutator(S, Z).sorted_members() == (0,)
    i_sub = generated_subgroup(G, [2])
    # the class of i is {i, -i}, so i^-1 * (-i) = -1 generates the center
    assert s_commutator(S, i_sub).sorted_members() == (0, 1)


def test_super_kernels():
    G, S = theory_of("S3")
    sigmas = S.supercharacters()
    assert super_kernel(sigmas[0]) == full_subgroup(G)
    assert super_kernel(sigmas[1]).sorted_members() == (0, 3, 4)
    assert super_kernel(sigmas[2]).sorted_members() == (0,)


def test_irr_over_and_quotient_partition():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    over = irr_over(S, A3)
    assert [sigma.index for sigma in over] == [2]
    assert irr_over(S, trivial_subgroup(G)) == ()
    # Irr(S/A3), the supercharacters whose kernel contains A3, is the rest
    quot = [sigma for sigma in S.supercharacters() if A3.members <= super_kernel(sigma).members]
    assert [s.index for s in quot] == [0, 1]


def test_irr_monotonicity_both_directions():
    for name in ("Q8", "D4", "C6"):
        G = catalog_group(name)
        T = character_table_of(G)
        for S in enumerate_scts(T):
            subs = s_normal_subgroups(S)
            over = {N.members: {s.index for s in irr_over(S, N)} for N in subs}
            for M in subs:
                for N in subs:
                    assert (over[M.members] <= over[N.members]) == (
                        M.members <= N.members
                    )


def test_lemma_quotient_normality_transfer():
    # for S-normal N <= M: M is S-normal iff M/N is normal for the deflation
    for name in ("Q8", "D4"):
        G = catalog_group(name)
        T = character_table_of(G)
        for S in enumerate_scts(T):
            subs = s_normal_subgroups(S)
            for N in subs:
                defl = deflation(S, N)
                _, proj = quotient_group(G, N)
                for M in subs:
                    if not N.members <= M.members:
                        continue
                    image = SubgroupSet(defl.group, {proj[g] for g in M.members})
                    assert defl.is_s_normal(image)
                # converse: preimages of deflated S-normal subgroups are S-normal
                for Mq in s_normal_subgroups(defl):
                    preimage = SubgroupSet(
                        G, {g for g in range(G.order) if proj[g] in Mq.members}
                    )
                    assert S.is_s_normal(preimage)
                    assert N.members <= preimage.members


def test_series_examples():
    G, S = theory_of("Q8")
    up = upper_series(S)
    low = lower_series(S)
    assert [H.sorted_members() for H in up.terms] == [(0,), (0, 1), tuple(range(8))]
    assert [H.sorted_members() for H in low.terms] == [tuple(range(8)), (0, 1), (0,)]
    assert s_nilpotence_class(S) == 2
    assert hypercenter(S) == full_subgroup(G)

    G, S = theory_of("S3")
    assert s_nilpotence_class(S) is None
    assert hypercenter(S).sorted_members() == (0,)
    assert upper_series(S).terms == (trivial_subgroup(G),)

    G, S = theory_of("C4")
    assert s_nilpotence_class(S) == 1


def test_series_term_clamping():
    G, S = theory_of("Q8")
    up = upper_series(S)
    assert up.term(10) == full_subgroup(G)
    low = lower_series(S)
    assert low.term(10).sorted_members() == (0,)
    with pytest.raises(IndexError):
        up.term(-1)


def test_trivial_group_class_is_zero():
    G = catalog_group("C1")
    S = finest(character_table_of(G))
    assert s_nilpotence_class(S) == 0


def test_deflated_gamma_identity():
    # gamma_i(S^{G/N}) is the image of gamma_i(S) N, for all i up to
    # stabilization of both series
    for name in ("S3", "Q8", "D4", "A4"):
        G, S = theory_of(name)
        low = lower_series(S)
        for N in s_normal_subgroups(S):
            _, proj = quotient_group(G, N)
            low_q = lower_series(deflation(S, N))
            for i in range(1, max(len(low.terms), len(low_q.terms)) + 2):
                lifted = subgroup_product(G, low.term(i), N)
                assert frozenset(proj[g] for g in lifted.members) == low_q.term(i).members


def test_upper_series_rejects_bad_input():
    G, S = theory_of("S3")
    with pytest.raises(SuperTheoryError):
        irr_over(S, generated_subgroup(G, [1]))
