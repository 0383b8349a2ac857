"""The lattice lookups and the derived deflations against the slow
element-set oracles of `lattice_oracle.py`."""

import pytest

from arith_oracle import key
from superchar.chartab import character_table_of
from superchar.errors import ConsistencyError
from superchar.groups import (
    catalog_group,
    class_masks,
    element_mask,
    generated_subgroup,
    normal_closure,
    normal_subgroup,
    normal_subgroups,
    preimage,
    quotient_group,
    subgroup_product,
)
from superchar.structure import s_normal_subgroups
from superchar.supertheory import coarsest, deflation, enumerate_scts, finest
from superchar.vanishing import u_rel, v_rel
from superchar.verifier import DEFAULT_CATALOG

from lattice_oracle import (
    derived_deflation,
    element_product,
    fresh_quotient,
    oracle_u_rel,
    oracle_v_rel,
)

LARGE = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def assert_matches_oracles(S):
    for N in s_normal_subgroups(S):
        assert v_rel(S, N).members == oracle_v_rel(S, N).members
        assert u_rel(S, N).members == oracle_u_rel(S, N).members
        built, derived = deflation(S, N), derived_deflation(S, N)
        assert built.table is derived.table
        assert (built.xparts, built.yparts) == (derived.xparts, derived.yparts)
        assert built.ypart_classes == derived.ypart_classes
        # keys, not ==: a value left in a larger field compares equal but is
        # stored, printed and hashed differently
        assert keys(built.sigma) == keys(derived.sigma)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_every_default_corpus_theory_matches_the_oracles(name):
    for S in enumerate_scts(character_table_of(catalog_group(name))):
        assert_matches_oracles(S)


def keys(rows):
    return [[key(v) for v in row] for row in rows]


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_quotients_and_deflations_of_deflations_match_fresh_ones(name):
    # (G/M)/(N/M) is G/N: the same object, with a table equal to the one
    # built from cosets, and a deflation of a deflation is the deflation of
    # the root theory by the preimage
    fresh = {}
    for S in enumerate_scts(character_table_of(catalog_group(name))):
        for M in s_normal_subgroups(S):
            D = deflation(S, M)
            for N in s_normal_subgroups(D):
                Q, proj = quotient_group(D.group, N)
                if (D.group, N) not in fresh:
                    fresh[D.group, N] = fresh_quotient(D.group, N)
                assert (Q.mul, proj) == (fresh[D.group, N][0].mul, fresh[D.group, N][1])
                L = preimage(S.group, M, N)
                assert Q is quotient_group(S.group, L)[0]
                built, derived = deflation(D, N), derived_deflation(D, N)
                assert built is deflation(S, L)
                assert keys(built.table.values) == keys(derived.table.values)
                assert (built.xparts, built.yparts) == (derived.xparts, derived.yparts)
                assert built.ypart_classes == derived.ypart_classes
                assert keys(built.sigma) == keys(derived.sigma)


@pytest.mark.parametrize("name", LARGE)
def test_extreme_theories_of_large_groups_match_the_oracles(name):
    table = character_table_of(catalog_group(name))
    assert_matches_oracles(finest(table))
    assert_matches_oracles(coarsest(table))


@pytest.mark.parametrize("name", DEFAULT_CATALOG + ("C2xC2xC2xC2", "S3xQ8"))
def test_join_is_the_element_product(name):
    G = catalog_group(name)
    lattice = normal_subgroups(G)
    for A in lattice:
        for B in lattice:
            assert subgroup_product(G, A, B) is normal_subgroup(G, element_product(G, A, B).mask)


@pytest.mark.parametrize("name", ("S4", "D8", "Q16", "C2xC2xC2xC2"))
def test_closure_is_the_generated_subgroup_and_refuses_open_sets(name):
    G = catalog_group(name)
    assert normal_closure(G, 0).sorted_members() == (0,)
    for H in normal_subgroups(G):
        assert normal_closure(G, H.mask) is normal_subgroup(G, H.mask) is H
    for g, mask in enumerate(class_masks(G)):
        cls = [x for x in range(G.order) if mask >> x & 1]
        assert normal_closure(G, mask).members == generated_subgroup(G, cls).members
        if len(cls) > 1:
            with pytest.raises(ConsistencyError, match="not closed under conjugation"):
                normal_closure(G, element_mask([0, g]))


def test_equal_deflations_of_different_theories_are_one_object():
    G = catalog_group("D4")
    theories = enumerate_scts(character_table_of(G))
    whole = normal_subgroups(G)[-1]
    trivial_quotients = {id(deflation(S, whole)) for S in theories}
    assert len(trivial_quotients) == 1
