from fractions import Fraction

import pytest

from superchar.chartab import character_table_of
from superchar.cyclotomic import Cyclotomic
from superchar.errors import SuperTheoryError
from superchar.groups import (
    SubgroupSet,
    catalog_group,
    full_subgroup,
    generated_subgroup,
    trivial_subgroup,
)
from superchar.structure import irr_quotient, s_commutator_full, s_normal_subgroups
from superchar.supertheory import (
    check_column_orthogonality,
    check_row_orthogonality,
    coarsest,
    deflation,
    delta_coarsen,
    enumerate_scts,
    finest,
    is_delta_product,
    is_star_product,
    restriction,
    sct_from_character_partition,
    sct_from_class_partition,
    star_construct,
    subquotient,
)
from superchar.verifier import DEFAULT_CATALOG

from bell_oracle import bell_scts


def theory_of(name):
    G = catalog_group(name)
    return G, character_table_of(G)


def test_finest_is_conjugacy_classes():
    G, T = theory_of("Q8")
    S = finest(T)
    assert S.n_parts == 5
    assert S.yparts == T.classes
    assert all(len(p) == 1 for p in S.xparts)


def test_finest_equals_coarsest_for_c2():
    _, T = theory_of("C2")
    assert finest(T) == coarsest(T)


def test_coarsest_s3_sigma_values():
    _, T = theory_of("S3")
    S = coarsest(T)
    assert [str(v) for v in S.sigma[1]] == ["5", "-1"]
    assert S.yparts.to_json() == [[0], [1, 2, 3, 4, 5]]


def test_c4_three_part_theory():
    _, T = theory_of("C4")
    # canonical row order: principal, chi(g)=i, chi(g)=-i, chi(g)=-1, so the
    # conjugate pair sits at indices {1, 2}
    S = sct_from_character_partition(T, [{0}, {3}, {1, 2}])
    assert S is not None
    assert sorted(map(sorted, S.yparts.to_json())) == [[0], [1, 3], [2]]
    assert S.validate().ok


def test_s3_level_set_rejection():
    _, T = theory_of("S3")
    assert sct_from_character_partition(T, [{0, 1}, {2}]) is None


@pytest.mark.parametrize("name,count", [("S3", 2), ("C4", 3), ("C2", 1), ("C3", 2), ("C5", 3)])
def test_enumeration_counts(name, count):
    _, T = theory_of(name)
    theories = enumerate_scts(T)
    assert len(theories) == count
    for S in theories:
        assert S.validate().ok
    assert theories[0] == finest(T)
    if T.group.order > 1:
        assert coarsest(T) in theories
    assert len({(s.xparts, s.yparts) for s in theories}) == len(theories)


def test_enumeration_is_sorted_and_deterministic():
    _, T = theory_of("D4")
    theories = enumerate_scts(T)
    sizes = [s.n_parts for s in theories]
    assert sizes == sorted(sizes, reverse=True)
    assert [s.xparts for s in theories] == [s.xparts for s in enumerate_scts(T)]


def test_principal_singleton_prune_is_equivalent():
    for name in ("S3", "C4", "Q8", "D4", "C6"):
        _, T = theory_of(name)
        full = bell_scts(T)
        pruned = bell_scts(T, assume_principal_singleton=True)
        assert [s.xparts for s in full] == [s.xparts for s in pruned]
        assert [s.xparts for s in enumerate_scts(T)] == [s.xparts for s in full]


def _pairs(theories):
    return [(s.xparts, s.yparts) for s in theories]


@pytest.mark.parametrize(
    "name",
    DEFAULT_CATALOG + ("D12", "S3xS3")
    + tuple(pytest.param(n, marks=pytest.mark.slow) for n in ("C10", "D4xC2", "S4xC2")),
)
def test_class_side_enumeration_matches_bell_oracle(name):
    _, T = theory_of(name)
    assert _pairs(enumerate_scts(T)) == _pairs(bell_scts(T))


# counts from the central Schur ring search of perfbench/oracle.py, which
# shares no code with superchar
@pytest.mark.parametrize("name,count", [("Q32", 47), ("D16", 47), ("S4xC2", 52), ("C12", 32)])
def test_enumeration_counts_beyond_the_oracle(name, count):
    _, T = theory_of(name)
    theories = enumerate_scts(T)
    assert len(theories) == count
    assert theories[0] == finest(T) and coarsest(T) in theories
    assert len(set(_pairs(theories))) == count


def test_enumeration_guard():
    _, T = theory_of("C3xC3")
    with pytest.raises(SuperTheoryError):
        enumerate_scts(T, max_parts=5)


def test_enumeration_guard_env_override(monkeypatch):
    _, T = theory_of("C6")
    monkeypatch.setenv("SUPERCHAR_MAX_BELL", "3")
    with pytest.raises(SuperTheoryError):
        enumerate_scts(T)
    monkeypatch.setenv("SUPERCHAR_MAX_BELL", "6")
    assert len(enumerate_scts(T)) == 7


def test_row_orthogonality_examples():
    _, T = theory_of("S3")
    for S in enumerate_scts(T):
        assert check_row_orthogonality(S).ok
    S = coarsest(T)
    # <sigma_rest, sigma_rest> = (25 + 5)/6 = 5 = 1 + 4
    order = T.group.order
    vals = S.sigma[1]
    total = Cyclotomic.zero(T.exponent)
    for i, b in enumerate(S.yparts.blocks):
        total = total + len(b) * (vals[i] * vals[i].conjugate())
    assert total / order == 5


def test_column_orthogonality_examples():
    G, T = theory_of("S3")
    S = coarsest(T)
    value, expected, ok = check_column_orthogonality(S, 1, 1)
    assert ok and value == Cyclotomic.from_rational(Fraction(6, 5), T.exponent)
    value, expected, ok = check_column_orthogonality(S, 0, 1)
    assert ok and value.is_zero()
    for S in enumerate_scts(T):
        for g in range(G.order):
            for h in range(G.order):
                assert check_column_orthogonality(S, g, h)[2]


def test_column_orthogonality_values_match_the_direct_sum():
    from superchar.cyclotomic import hermitian_term

    for name in ("D4", "Q8", "C6"):
        _, T = theory_of(name)
        for S in enumerate_scts(T):
            for bg in S.yparts.blocks:
                for bh in S.yparts.blocks:
                    g, h = min(bg), min(bh)
                    kg, kh = S.class_of(g), S.class_of(h)
                    direct = sum(
                        (hermitian_term(row[kg], row[kh]) / row[0].rational_value() for row in S.sigma),
                        Cyclotomic.zero(T.exponent),
                    )
                    assert check_column_orthogonality(S, g, h)[0] == direct


def test_sct_from_class_partition_examples():
    G, T = theory_of("S3")
    assert sct_from_class_partition(T, T.classes) == finest(T)
    from superchar.groups import ElementPartition

    coarse = ElementPartition(6, [{0}, set(range(1, 6))])
    assert sct_from_class_partition(T, coarse) == coarsest(T)
    _, T4 = theory_of("C4")
    mid = ElementPartition(4, [{0}, {2}, {1, 3}])
    S = sct_from_class_partition(T4, mid)
    assert S is not None and sorted(map(len, S.xparts)) == [1, 1, 2]
    with pytest.raises(SuperTheoryError):
        sct_from_class_partition(T4, ElementPartition(4, [{0, 1}, {2, 3}]))


def test_class_partition_derivation_is_cached():
    from superchar.chartab import dixon_character_table
    from superchar.groups import ElementPartition

    for name in ("D4", "S3", "C6"):
        G, T = theory_of(name)
        fresh_table = dixon_character_table(catalog_group(name))
        for S in enumerate_scts(T):
            blocks = [set(b) for b in S.yparts.blocks]
            first = sct_from_class_partition(T, ElementPartition(G.order, blocks))
            again = sct_from_class_partition(T, ElementPartition(G.order, blocks))
            assert first is not None and again is first
            fresh = sct_from_class_partition(fresh_table, ElementPartition(G.order, blocks))
            assert fresh is not first and fresh.to_json() == first.to_json()
    _, T4 = theory_of("C4")
    not_a_theory = ElementPartition(4, [{0}, {1}, {2, 3}])
    assert sct_from_class_partition(T4, not_a_theory) is None
    assert sct_from_class_partition(T4, not_a_theory) is None
    _, T3 = theory_of("S3")
    splits_a_class = ElementPartition(6, [{0}, {1}, {2, 3, 4, 5}])
    for _ in range(2):
        with pytest.raises(SuperTheoryError):
            sct_from_class_partition(T3, splits_a_class)


def test_restriction_to_a3():
    G, T = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    R = restriction(finest(T), A3)
    assert R.group.order == 3
    assert R.yparts.to_json() == [[0], [1, 2]]
    assert R.validate().ok


def test_restriction_requires_s_normal():
    G, T = theory_of("S3")
    with pytest.raises(SuperTheoryError):
        restriction(finest(T), generated_subgroup(G, [1]))


def test_deflation_by_whole_group_is_trivial():
    G, T = theory_of("S3")
    D = deflation(finest(T), full_subgroup(G))
    assert D.group.order == 1 and D.n_parts == 1


def test_deflation_q8_center_gives_finest_v4():
    G, T = theory_of("Q8")
    D = deflation(finest(T), SubgroupSet(G, [0, 1]))
    assert D.group.order == 4
    assert all(len(b) == 1 for b in D.yparts.blocks)


def test_subquotient_composes():
    G, T = theory_of("Q8")
    S = finest(T)
    Z = SubgroupSet(G, [0, 1])
    i_sub = generated_subgroup(G, [2])
    Sq = subquotient(S, i_sub, Z)
    assert Sq.group.order == 2 and Sq.n_parts == 2


def test_star_product_predicate_and_construction():
    G, T = theory_of("S3")
    S = finest(T)
    A3 = generated_subgroup(G, [3])
    assert is_star_product(S, trivial_subgroup(G))
    assert is_star_product(S, A3)
    assert star_construct(S, A3) == S
    assert star_construct(S, trivial_subgroup(G)) == S
    # the construction is coarser-or-equal and made of unions of S-classes
    for name in ("Q8", "D4", "C6"):
        G2, T2 = theory_of(name)
        for S2 in enumerate_scts(T2):
            for N in s_normal_subgroups(S2):
                built = star_construct(S2, N)
                for b in S2.yparts.blocks:
                    assert b <= built.yparts.block_containing(min(b))
                assert is_star_product(S2, N) == (built == S2)


def test_delta_product_predicate():
    G, T = theory_of("Q8")
    S = finest(T)
    Z = SubgroupSet(G, [0, 1])
    i_sub = generated_subgroup(G, [2])
    assert is_delta_product(S, Z, i_sub)
    with pytest.raises(SuperTheoryError):
        is_delta_product(S, i_sub, Z)  # needs M <= N


def test_delta_coarsen_trivial_m_is_identity():
    G, T = theory_of("S3")
    S = finest(T)
    A3 = generated_subgroup(G, [3])
    assert delta_coarsen(S, trivial_subgroup(G), A3) == S
    assert delta_coarsen(S, trivial_subgroup(G), full_subgroup(G)) == S


def test_delta_coarsen_produces_known_coarser_theories():
    # saturating the finest theory of C4 by its order-2 subgroup gives the
    # middle three-part theory
    G, T = theory_of("C4")
    S = finest(T)
    half = generated_subgroup(G, [2])
    mid = delta_coarsen(S, half, half)
    assert mid is not None
    assert sorted(map(sorted, mid.yparts.to_json())) == [[0], [1, 3], [2]]
    # saturating Q8's finest theory by <i> merges the j and k classes
    q8, Tq = theory_of("Q8")
    Sq = finest(Tq)
    i_sub = generated_subgroup(q8, [2])
    built = delta_coarsen(Sq, i_sub, i_sub)
    assert built is not None
    assert sorted(map(sorted, built.yparts.to_json())) == [[0], [1], [2, 3], [4, 5, 6, 7]]
    assert built.validate().ok


def test_induced_theory_class_characterizations():
    # restriction classes are exactly the S-classes inside N; deflation
    # classes are exactly the projected S-classes
    from superchar.groups import quotient_group, subgroup_group

    for name in ("S3", "Q8", "D4"):
        G, T = theory_of(name)
        for S in enumerate_scts(T):
            for N in s_normal_subgroups(S):
                H, _, to_local = subgroup_group(G, N)
                R = restriction(S, N)
                expected = {
                    frozenset(to_local[g] for g in b)
                    for b in S.yparts.blocks
                    if b <= N.members
                }
                assert set(R.yparts.blocks) == expected
                Q, proj = quotient_group(G, N)
                D = deflation(S, N)
                images = {frozenset(proj[g] for g in b) for b in S.yparts.blocks}
                assert set(D.yparts.blocks) == images


def test_linear_parts_match_the_quotient_characters():
    # the supercharacters that factor through G/[G,S] are exactly the
    # singleton parts of linear characters, one per linear character of
    # the quotient
    for name in ("S3", "Q8", "D4", "A4", "C6"):
        G, T = theory_of(name)
        for S in enumerate_scts(T):
            com = s_commutator_full(S)
            quotient_chars = irr_quotient(S, com)
            for sigma in quotient_chars:
                assert len(sigma.part) == 1
                t = next(iter(sigma.part))
                assert T.degrees[t] == 1
            linear_with_com = [
                t
                for t in range(len(T.values))
                if T.degrees[t] == 1 and com.members <= T.char_kernel(t).members
            ]
            assert sorted(next(iter(s.part)) for s in quotient_chars) == linear_with_com


def test_every_enumerated_theory_revalidates():
    for name in ("C6", "D4", "Q8"):
        _, T = theory_of(name)
        for S in enumerate_scts(T):
            assert S.validate().ok
            assert check_row_orthogonality(S).ok


def _brute_force_theories(table):
    """Independent oracle: test the defining clauses directly on every pair
    of partitions (characters x elements with a {1} block)."""
    m = len(table.values)
    order = table.group.order
    block_of = table.classes.block_of

    def partitions(items):
        items = list(items)
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
            yield [[head]] + sub

    found = set()
    for xparts in partitions(range(m)):
        if len(xparts) > order:
            continue
        sigma_rows = []
        for part in xparts:
            row = []
            for k in range(table.n_classes):
                acc = Cyclotomic.zero(table.exponent)
                for t in part:
                    acc = acc + table.degrees[t] * table.values[t][k]
                row.append(acc)
            sigma_rows.append(row)
        for yrest in partitions(range(1, order)):
            yblocks = [[0]] + yrest
            if len(yblocks) != len(xparts):
                continue
            constant = True
            for row in sigma_rows:
                for block in yblocks:
                    ref = row[block_of[block[0]]]
                    if any(row[block_of[g]] != ref for g in block[1:]):
                        constant = False
                        break
                if not constant:
                    break
            if constant:
                x_key = frozenset(frozenset(p) for p in xparts)
                y_key = frozenset(frozenset(b) for b in yblocks)
                found.add((x_key, y_key))
    return found


@pytest.mark.parametrize("name", ["C4", "S3", "C6"])
def test_enumeration_against_brute_force_definition(name):
    _, T = theory_of(name)
    fast = {
        (
            frozenset(S.xparts),
            frozenset(S.yparts.blocks),
        )
        for S in enumerate_scts(T)
    }
    assert fast == _brute_force_theories(T)
