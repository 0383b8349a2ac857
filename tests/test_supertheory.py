from collections.abc import Sequence
from fractions import Fraction

import pytest

from superchar.chartab import character_table_of, dixon_character_table, quotient_character_table
from superchar.cli import main
from superchar.cyclotomic import Cyclotomic
from superchar import supertheory
from superchar.errors import ConsistencyError, SuperTheoryError
from superchar.groups import (
    ElementPartition,
    SubgroupSet,
    cached,
    catalog_group,
    full_subgroup,
    generated_subgroup,
    normal_subgroups,
    release,
    trivial_subgroup,
)
from superchar.structure import irr_over, s_commutator_full, s_normal_subgroups
from superchar.supertheory import (
    MAX_CLASSES,
    SuperTheory,
    coarsest,
    deflation,
    enumerate_scts,
    finest,
    is_delta_product,
    non_coset_union,
    sct_from_class_partition,
    sigma_orthogonality,
    star_construct,
)
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG

from arith_oracle import Ref, key, sigma_class_values, sigma_failures, sigma_gram
from bell_oracle import bell_scts, sct_from_character_partition


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


@pytest.mark.parametrize(
    "name",
    DEFAULT_CATALOG + ("C1", "C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5"),
)
def test_class_side_extremes_match_the_character_side_oracle(name):
    # finest and coarsest are derived from their class partitions; the
    # oracle derives them from the character partitions {chi} and
    # {1}, Irr(G) - {1} on a fresh table
    G = catalog_group(name)
    T = character_table_of(G)
    fresh = dixon_character_table(G)
    m = len(fresh.values)
    assert finest(T).to_json() == sct_from_character_partition(fresh, [{t} for t in range(m)]).to_json()
    if G.order > 1:
        oracle = sct_from_character_partition(fresh, [{0}, set(range(1, m))])
        assert coarsest(T).to_json() == oracle.to_json()


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


def test_enumeration_is_a_sequence_derived_when_read(body_runs, monkeypatch):
    _, T = theory_of("D4")
    theories = enumerate_scts(T)
    assert isinstance(theories, Sequence) and len(theories) == 9
    # one derivation per theory read, however often and by whatever index
    assert body_runs(sct_from_class_partition, lambda: list(theories)) == 9
    assert body_runs(sct_from_class_partition, lambda: (list(theories), theories[::-1], theories[-1])) == 0
    assert theories[-1] is theories[8] and theories[2:4] == [theories[2], theories[3]]
    with pytest.raises(IndexError):
        theories[9]
    # an evicted theory is derived anew, a new object equal to the old
    S = theories[3]
    sct_from_class_partition.evict(T, S.yparts)
    assert theories[3] is not S and _pairs([theories[3]]) == _pairs([S])
    # a ring with fewer character fibers than blocks raises before any read
    fibers = supertheory._character_fibers
    monkeypatch.setattr(supertheory, "_character_fibers", lambda table, blocks: fibers(table, blocks)[1:])
    with pytest.raises(ConsistencyError, match="central Schur ring"):
        enumerate_scts(T)


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


def test_enumeration_guard_boundary(capsys):
    # C12 has 12 classes, the most enumerate_scts takes; C13 has one more
    _, T = theory_of("C12")
    assert T.n_classes == MAX_CLASSES and len(enumerate_scts(T)) == 32
    _, T = theory_of("C13")
    with pytest.raises(SuperTheoryError):
        enumerate_scts(T)
    assert main(["enumerate", "--group", "C13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_row_orthogonality_examples():
    _, T = theory_of("S3")
    for S in enumerate_scts(T):
        [(_, hypothesis, conclusion)] = _CHECKERS["P-roworth"](S)
        assert (hypothesis, conclusion()) == (True, (True, None))
    S = coarsest(T)
    # <sigma_rest, sigma_rest> = (25 + 5)/6 = 5 = 1 + 4
    order = T.group.order
    vals = S.sigma[1]
    total = Ref(T.exponent)
    for i, b in enumerate(S.yparts.blocks):
        total = total + (Ref.of(vals[i]) * Ref.of(vals[i]).conjugate()).scale(len(b))
    assert total.scale(Fraction(1, order)).value() == 5


def test_column_orthogonality_examples():
    G, T = theory_of("S3")
    S = coarsest(T)
    # K_0 = {1}, K_1 = G - {1}: the oracle's Gram triangle holds |G|/|K_k|
    # on the diagonal and 0 off it, and no pair fails
    cols = sigma_gram(S)[1]
    assert cols[1][0] == Cyclotomic.from_rational(Fraction(6, 5), T.exponent)
    assert cols[0][1].is_zero()
    for S in enumerate_scts(T):
        cols = sigma_gram(S)[1]
        for k, b in enumerate(S.yparts.blocks):
            assert cols[k][0] == Fraction(G.order, len(b))
            assert all(v.is_zero() for v in cols[k][1:])
        assert sigma_orthogonality(S) == sigma_failures(S, sigma_gram(S)) == ([], [])


def test_column_orthogonality_values_match_the_direct_sum():
    # the oracle's Gram triangle is the direct sum, and the packed decision
    # fails exactly the pairs where that sum misses its target
    for name in ("D4", "Q8", "C6"):
        _, T = theory_of(name)
        for S in enumerate_scts(T):
            gram = sigma_gram(S)
            direct = []
            for kg in range(S.n_parts):
                row = []
                for kh in range(kg, S.n_parts):
                    total = Ref(T.exponent)
                    for sigma in S.sigma:
                        term = Ref.of(sigma[kg]) * Ref.of(sigma[kh]).conjugate()
                        total = total + term.scale(1 / sigma[0].rational_value())
                    row.append(total.value())
                direct.append(row)
            assert [[key(v) for v in row] for row in direct] == [[key(v) for v in row] for row in gram[1]]
            assert sigma_orthogonality(S)[1] == sigma_failures(S, (gram[0], direct))[1] == []


def test_sct_from_class_partition_examples():
    G, T = theory_of("S3")
    assert sct_from_class_partition(T, T.classes) == finest(T)

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


def test_deflation_by_whole_group_is_trivial():
    G, T = theory_of("S3")
    D = deflation(finest(T), full_subgroup(G))
    assert D.group.order == 1 and D.n_parts == 1


def test_deflation_q8_center_gives_finest_v4():
    G, T = theory_of("Q8")
    D = deflation(finest(T), SubgroupSet(G, [0, 1]))
    assert D.group.order == 4
    assert all(len(b) == 1 for b in D.yparts.blocks)


def test_deflation_reads_the_inflated_quotient_table():
    G, T = theory_of("D4")
    S = finest(T)
    Z = SubgroupSet(G, [0, 2])
    D = deflation(S, Z)
    assert D.table is quotient_character_table(T, Z) is character_table_of(D.group)
    assert [c.name for c in D.table.validation.checks] == ["shape", "degree-sum", "principal-row"]


def test_s_normality_is_cached_per_subgroup(body_runs):
    G, T = theory_of("S3")
    S = finest(T)
    A3, C2 = generated_subgroup(G, [3]), generated_subgroup(G, [1])
    assert S.is_s_normal(A3) and not S.is_s_normal(C2)
    # the cached answer is the answer for an equal subgroup built anew
    assert body_runs(SuperTheory.is_s_normal, lambda: S.is_s_normal(SubgroupSet(G, A3.members))) == 0
    assert S.is_s_normal(SubgroupSet(G, A3.members)) and not S.is_s_normal(C2)
    with pytest.raises(SuperTheoryError):
        S.is_s_normal(trivial_subgroup(catalog_group("S3")))


def test_cache_rule_stores_no_failure_and_keys_by_group(body_runs):
    G, T = theory_of("D4")
    S = finest(T)
    not_s_normal = generated_subgroup(G, [4])  # <s> is not normal in D4

    def deflate_twice():
        for _ in range(2):
            with pytest.raises(SuperTheoryError):
                deflation(S, not_s_normal)

    # a call that raises stores nothing, so the check runs on every call
    assert body_runs(deflation, deflate_twice) == 2
    # an equal subgroup built anew hits the entry of the first one
    D = deflation(S, SubgroupSet(G, [0, 2]))
    assert body_runs(deflation, lambda: deflation(S, SubgroupSet(G, [0, 2]))) == 0
    assert deflation(S, SubgroupSet(G, [0, 2])) is D

    # the same members in another group miss it and fail the parent check
    def foreign():
        with pytest.raises(SuperTheoryError, match="different group"):
            deflation(S, SubgroupSet(catalog_group("D4"), [0, 2]))

    assert body_runs(deflation, foreign) == 1


def test_the_cache_rule_holds_at_every_arity(body_runs):
    # the owner alone, one argument and two: equal arguments share an
    # entry, a call that raises stores nothing, and release drops them all
    G, T = theory_of("S3")
    S = finest(T)
    A3 = next(N for N in normal_subgroups(G) if len(N) == 3)
    # a subgroup is one object per member set, so equal but distinct
    # arguments are shown with frozensets, which are not interned
    key, twin = frozenset(A3.members), frozenset(sorted(A3.members))
    assert twin == key and twin is not key
    runs, raising = [], [True]

    def probe(*args):
        runs.append(args)
        if raising[0]:
            raise ValueError("refused")
        return object()

    owner_only = cached(lambda S: probe(S))
    one = cached(lambda S, H: probe(S, H))
    two = cached(lambda S, H, K: probe(S, H, K))
    calls = [lambda: owner_only(S), lambda: one(S, key), lambda: two(S, key, frozenset({0}))]
    for call in calls * 2:
        with pytest.raises(ValueError):
            call()
    assert len(runs) == 6
    raising[0] = False
    first = [call() for call in calls]
    assert [owner_only(S), one(S, twin), two(S, twin, frozenset([0]))] == first
    assert len(runs) == 9 and owner_only.__wrapped__.__code__.co_argcount == 1
    release(S)
    assert all(call() is not old for call, old in zip(calls, first)) and len(runs) == 12

    # the package's own cached functions of each arity, with A3 built anew
    rebuilt = SubgroupSet(G, sorted(A3.members))
    assert rebuilt is A3
    assert S.is_s_normal(A3) and non_coset_union(S, A3, A3) is None and s_normal_subgroups(S)
    assert body_runs(SuperTheory.is_s_normal, lambda: S.is_s_normal(rebuilt)) == 0
    assert body_runs(non_coset_union, lambda: non_coset_union(S, rebuilt, rebuilt)) == 0
    assert body_runs(s_normal_subgroups, lambda: s_normal_subgroups(S)) == 0

    def needs_m_below_n():
        for _ in range(2):
            with pytest.raises(SuperTheoryError):
                non_coset_union(S, A3, trivial_subgroup(G))

    assert body_runs(non_coset_union, needs_m_below_n) == 2
    release(S)
    assert body_runs(SuperTheory.is_s_normal, lambda: S.is_s_normal(rebuilt)) == 1
    assert body_runs(non_coset_union, lambda: non_coset_union(S, rebuilt, rebuilt)) == 1
    assert body_runs(s_normal_subgroups, lambda: s_normal_subgroups(S)) == 1


def test_a_theory_is_one_object_per_table_and_partition():
    # theories compare by identity, as subgroups do: rebuilding the class
    # partition of a theory or of a deflation returns that very object
    assert "__eq__" not in vars(SuperTheory) and SuperTheory.__hash__ is object.__hash__
    for name in ("S3", "D4", "Q8", "C2xC2xC2"):
        for S in enumerate_scts(character_table_of(catalog_group(name))):
            for D in [S, *(deflation(S, N) for N in s_normal_subgroups(S))]:
                rebuilt = ElementPartition(D.group.order, [sorted(b) for b in D.yparts.blocks])
                assert sct_from_class_partition(D.table, rebuilt) is D


def test_each_deflation_is_built_once(monkeypatch):
    # a deflation is the cached theory of its projected superclasses on the
    # table of its quotient, and a quotient of a quotient is the one object
    # G/L, so equal deflations of different theories or of deflations are
    # derived once: every theory built is one that is returned
    init = SuperTheory.__init__
    for name in ("D4", "Q8", "C2xC2xC2", "S4"):
        # derived before the count starts: enumerate_scts derives each when read
        theories = list(enumerate_scts(character_table_of(catalog_group(name))))
        built = []
        monkeypatch.setattr(SuperTheory, "__init__", lambda self, *args: built.append(self) or init(self, *args))
        pairs = [(S, N) for S in theories for N in s_normal_subgroups(S)]
        returned = [deflation(S, N) for S, N in pairs]
        pairs += [(D, M) for D in returned[:] for M in s_normal_subgroups(D)]
        returned += [deflation(D, M) for D, M in pairs[len(returned):]]
        monkeypatch.undo()
        # S^{G/{1}} is S itself; every other deflation is a theory built here
        assert all((D is S) == (len(N) == 1) for (S, N), D in zip(pairs, returned)), name
        quotients = [D for (_, N), D in zip(pairs, returned) if len(N) > 1]
        assert {id(D) for D in built} == {id(D) for D in quotients}, name
        assert len(built) < len(quotients) / 2, name


def test_star_product_predicate_and_construction():
    G, T = theory_of("S3")
    S = finest(T)
    A3 = generated_subgroup(G, [3])
    assert is_delta_product(S, trivial_subgroup(G), trivial_subgroup(G))
    assert is_delta_product(S, A3, A3)
    assert star_construct(S, A3) == S
    assert star_construct(S, trivial_subgroup(G)) == S
    # the construction is coarser-or-equal and made of unions of S-classes
    for name in ("Q8", "D4", "C6"):
        G2, T2 = theory_of(name)
        for S2 in enumerate_scts(T2):
            for N in s_normal_subgroups(S2):
                built = star_construct(S2, N)
                for b in S2.yparts.blocks:
                    assert b <= built.superclass(min(b))
                assert is_delta_product(S2, N, N) == (built == S2)


def test_delta_product_predicate():
    G, T = theory_of("Q8")
    S = finest(T)
    Z = SubgroupSet(G, [0, 1])
    i_sub = generated_subgroup(G, [2])
    assert is_delta_product(S, Z, i_sub)
    with pytest.raises(SuperTheoryError):
        is_delta_product(S, i_sub, Z)  # needs M <= N


def test_induced_theory_class_characterizations():
    # deflation classes are exactly the projected S-classes
    from superchar.groups import quotient_group

    for name in ("S3", "Q8", "D4"):
        G, T = theory_of(name)
        for S in enumerate_scts(T):
            for N in s_normal_subgroups(S):
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
            over = {sigma.index for sigma in irr_over(S, com)}
            quotient_chars = [sigma for sigma in S.supercharacters() if sigma.index not in over]
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
            [(_, hypothesis, conclusion)] = _CHECKERS["P-roworth"](S)
            assert (hypothesis, conclusion()) == (True, (True, None))


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
        sigma_rows = [sigma_class_values(table, part) for part in xparts]
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
