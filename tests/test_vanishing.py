import hashlib
import json

import pytest

from superchar.chartab import character_table_of
from superchar.groups import (
    SubgroupSet,
    catalog_group,
    full_subgroup,
    generated_subgroup,
    trivial_subgroup,
)
from superchar.structure import (
    s_center,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    super_kernel,
)
from superchar.cyclotomic import Cyclotomic
from superchar.supertheory import SuperTheory, coarsest, enumerate_scts, finest
from superchar.vanishing import (
    is_camina_element,
    is_camina_pair,
    is_camina_triple,
    is_s_gcp,
    is_vz,
    nonvanishing_mask,
    scd_check,
    u_chain,
    u_rel,
    u_theory,
    v_rel,
    v_series,
    v_theory,
    vanish_off,
)
from superchar import vanishing
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG, run_suite


def theory_of(name, kind="finest"):
    G = catalog_group(name)
    T = character_table_of(G)
    return G, (finest(T) if kind == "finest" else coarsest(T))


def concluded_at(tid, S, scope):
    """(holds, witness) of theorem tid's row at scope on S, its conclusion
    called whether its hypothesis holds or not, before the checker resumes."""
    for row_scope, _, conclusion in _CHECKERS[tid](S):
        if row_scope == scope:
            return conclusion()
    raise KeyError(scope)


def test_vanish_off_principal_is_whole_group():
    G, S = theory_of("S3")
    principal = S.supercharacters()[0]
    assert vanish_off(principal) == full_subgroup(G)


def test_vanish_off_degree_two_sigma():
    G, S = theory_of("S3")
    sigma = S.supercharacters()[2]
    assert [str(v) for v in sigma.values] == ["4", "0", "-2"]
    assert nonvanishing_mask(sigma) == 0b11001
    assert vanish_off(sigma).sorted_members() == (0, 3, 4)


def test_vanish_off_coarsest_never_vanishes():
    G, S = theory_of("D4", "coarsest")
    rest = S.supercharacters()[1]
    assert vanish_off(rest) == full_subgroup(G)


def test_v_rel_examples():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    assert v_rel(S, trivial_subgroup(G)).sorted_members() == (0,)
    assert v_rel(S, A3).sorted_members() == (0, 3, 4)
    assert v_rel(S, full_subgroup(G)) == full_subgroup(G)


def test_v_theory_examples():
    G, S = theory_of("C2xC2")
    assert v_theory(S).sorted_members() == (0,)
    G, S = theory_of("S3")
    assert v_theory(S).sorted_members() == (0, 3, 4)
    G, S = theory_of("C4", "coarsest")
    assert v_theory(S) == full_subgroup(G)


def test_camina_elements_s3():
    G, S = theory_of("S3")
    for g in (1, 2, 5):  # transpositions
        verdict = is_camina_element(S, g)
        assert verdict.holds and verdict.agreement
    for g in (0, 3, 4):
        verdict = is_camina_element(S, g)
        assert not verdict.holds and verdict.agreement


def test_no_camina_elements_in_coarse_theories():
    for name in ("C4", "S3", "Q8", "D4"):
        G, S = theory_of(name, "coarsest")
        for g in range(G.order):
            verdict = is_camina_element(S, g)
            assert not verdict.holds and verdict.agreement


def test_gcp_examples():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    verdict = is_s_gcp(S, A3)
    assert verdict.holds and verdict.agreement and not verdict.vacuous
    whole = is_s_gcp(S, full_subgroup(G))
    assert whole.holds and whole.vacuous
    assert not is_s_gcp(S, trivial_subgroup(G)).holds

    q8, Sq = theory_of("Q8")
    i_sub = generated_subgroup(q8, [2])
    verdict = is_s_gcp(Sq, i_sub)
    assert verdict.holds and verdict.agreement


def test_gcp_literal_reading_is_a_condition_exactly_at_the_commutator(monkeypatch):
    # the literal "over N and [G,S]" coset-product reading is asserted only at
    # N = [G,S], where it is the [G,S]-coset reading, and evaluated nowhere
    # else: every coset-product test the verdict makes is over [G,S]-cosets.
    # At N = 1 <= [G,S] it would be trivially true while S3's pair is no GCP
    real, calls = vanishing.is_delta_product, []
    monkeypatch.setattr(vanishing, "is_delta_product", lambda S, M, N: calls.append(M) or real(S, M, N))
    for name in ("S3", "Q8", "D4", "A4"):
        for S in enumerate_scts(character_table_of(catalog_group(name))):
            com = s_commutator_full(S)
            for N in s_normal_subgroups(S):
                calls.clear()
                verdict = is_s_gcp(S, N)
                assert ("coset-product-literal" in verdict.conditions) == (N is com)
                assert all(M is com for M in calls)
    G, S = theory_of("S3")
    verdict = is_s_gcp(S, trivial_subgroup(G))
    assert not verdict.holds and verdict.agreement


def test_camina_pair_examples():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    verdict = is_camina_pair(S, A3)
    assert verdict.holds and verdict.agreement
    assert is_camina_pair(S, full_subgroup(G)).holds
    triv = is_camina_pair(S, trivial_subgroup(G))
    assert triv.holds  # 1-cosets are singletons
    assert "two-clause" not in triv.conditions  # no character lies over N = 1


def test_false_verdicts_carry_witnesses():
    G, S = theory_of("S3")
    assert is_camina_element(S, 3).witnesses
    assert is_s_gcp(S, trivial_subgroup(G)).witnesses
    q8, Sq = theory_of("Q8")
    i_sub = generated_subgroup(q8, [2])
    pair = is_camina_pair(Sq, i_sub)
    assert not pair.holds and "coset-union" in pair.witnesses
    c4, Sc = theory_of("C4", "coarsest")
    vz = is_vz(Sc)
    assert not vz.holds and vz.witnesses


def test_camina_triple_examples():
    q8, S = theory_of("Q8")
    Z = SubgroupSet(q8, [0, 1])
    i_sub = generated_subgroup(q8, [2])
    verdict = is_camina_triple(S, i_sub, Z)
    assert verdict.holds and verdict.agreement
    assert v_rel(S, Z).members <= i_sub.members


def test_v_series_examples():
    G, S = theory_of("C2xC2")
    vs = v_series(S)
    assert [H.sorted_members() for H in vs.terms] == [(0,)]

    q8, Sq = theory_of("Q8")
    vs = v_series(Sq)
    assert [H.sorted_members() for H in vs.terms] == [(0, 1), (0,)]
    assert s_nilpotence_class(Sq) == 2

    s3, Ss = theory_of("S3")
    vs = v_series(Ss)
    assert vs.last.sorted_members() == (0, 3, 4)
    assert s_nilpotence_class(Ss) is None


def test_v_series_checks_pass():
    for name in ("S3", "Q8", "D4", "A4", "C6"):
        G = catalog_group(name)
        for S in enumerate_scts(character_table_of(G)):
            assert concluded_at("T-vseries", S, {}) == (True, None)


def test_u_rel_examples():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    assert u_rel(S, A3) == SubgroupSet(G, A3.members)
    # by the product definition U(S|G) includes G itself
    assert u_rel(S, full_subgroup(G)) == full_subgroup(G)
    assert u_rel(S, trivial_subgroup(G)).sorted_members() == (0,)

    q8, Sq = theory_of("Q8")
    Z = SubgroupSet(q8, [0, 1])
    assert u_rel(Sq, Z) == Z


def test_u_theory_examples():
    G, S = theory_of("S3")
    assert u_theory(S).sorted_members() == (0,)
    q8, Sq = theory_of("Q8")
    assert u_theory(Sq).sorted_members() == (0, 1)
    c4, Sa = theory_of("C4")
    assert u_theory(Sa) == full_subgroup(c4)  # S-abelian convention


def test_u_membership_characterization():
    # g lies in U(S|N) exactly when every supercharacter whose kernel misses
    # g vanishes off N
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    U = u_rel(S, A3)
    assert 0 in U.members and 3 in U.members and 1 not in U.members
    outside = [x for x in range(G.order) if x not in A3.members]
    for g in range(G.order):
        vanish = all(
            sigma.value_on(x).is_zero()
            for sigma in S.supercharacters()
            if g not in super_kernel(sigma).members
            for x in outside
        )
        assert vanish == (g in U.members)


def test_u_chain():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    chain = u_chain(S, A3)
    assert chain.last.sorted_members() == (0, 3, 4)
    q8, Sq = theory_of("Q8")
    chain = u_chain(Sq, generated_subgroup(q8, [2]))
    assert chain.last.sorted_members() == (0, 1)


def test_u_quotient_check():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    assert concluded_at("L-uquot", S, {"n": A3, "h": full_subgroup(G)}) == (True, None)
    assert concluded_at("L-uquot", S, {"n": A3, "h": A3}) == (True, None)  # V(S|A3) = A3 <= A3 holds, still applicable
    # hypothesis fails, conclusion holds
    assert concluded_at("L-uquot", S, {"n": full_subgroup(G), "h": A3}) == (True, None)
    C6, S6 = theory_of("C6")
    # V(S|{0,3}) = C6 escapes {0,2,4}: the hypothesis fails, and so does the conclusion
    assert concluded_at("L-uquot", S6, {"n": generated_subgroup(C6, [3]), "h": generated_subgroup(C6, [2])}) == (
        False, {"failing": ["deflated U = [0, 1, 2], projected U = [0]"]})


def test_u_kernel_check():
    G, S = theory_of("S3")
    A3 = generated_subgroup(G, [3])
    assert concluded_at("L-ukernel", S, {"n": A3}) == (True, None)
    holds, witness = concluded_at("L-ukernel", S, {"n": full_subgroup(G)})
    assert holds and witness["notes"]  # empty family, defaults to G
    for name in ("Q8", "D4", "C6"):
        G2 = catalog_group(name)
        for S2 in enumerate_scts(character_table_of(G2)):
            for N in s_normal_subgroups(S2):
                assert concluded_at("L-ukernel", S2, {"n": N})[0]


U_CHECKERS = ("L-unormal", "L-uorder", "L-ugroup", "C-ucorr", "C-ucor", "T-ugroupp", "L-ucap", "T-udelta",
              "L-uchain", "L-uquot", "L-ukernel", "T-final")


def test_a_false_u_conclusion_fails_at_its_own_scopes(monkeypatch):
    # V(S|G) planted as 1 puts G inside every U(S|N) of S3's finest theory,
    # so U(S|N) escapes N n [G,S] at N = 1 and N = A3.  No builder raises
    # for it: L-ucap fails at those two scopes, and every U-checker still
    # yields its scoped rows, none an exception row
    G, S = theory_of("S3")
    table = vanishing._v_table
    planted = lambda T: {**table(T), full_subgroup(G).mask: trivial_subgroup(G)} if T is S else table(T)
    monkeypatch.setattr(vanishing, "_v_table", planted)
    counts, fails = {"pass": 0, "fail": 0, "vacuous": 0, "na": 0}, []
    reports = {}
    for report in json.loads(b"[" + b"".join(run_suite(S, counts, fails)) + b"]"):
        reports.setdefault(report["theorem_id"], []).append(report)
    assert [(r["scope"], r["status"]) for r in reports["L-ucap"]] == [
        ({"n": [0]}, "fail"), ({"n": [0, 3, 4]}, "fail"), ({"n": list(range(6))}, "not-applicable")]
    for tid in U_CHECKERS:
        assert reports[tid] and not any("exception" in r["scope"] for r in reports[tid]), tid


def test_vz_examples():
    q8, Sq = theory_of("Q8")
    verdict = is_vz(Sq)
    assert verdict.holds and verdict.agreement
    assert v_theory(Sq) == s_center(Sq) == s_commutator_full(Sq) == u_theory(Sq)

    s3, Ss = theory_of("S3")
    assert not is_vz(Ss).holds

    c4, Sc = theory_of("C4", "coarsest")
    assert not is_vz(Sc).holds


def test_scd_check_q8():
    q8, Sq = theory_of("Q8")
    rep = scd_check(Sq)
    assert rep.ok and rep.checks
    sigma = Sq.supercharacters()[4]
    assert sigma.degree == 4  # = ||X|| sqrt(|G : Z(S)|) = 2 * 2
    degrees = {s.degree for s in Sq.supercharacters()}
    assert degrees == {1, 4}


def test_scd_check_catches_a_central_value_of_the_wrong_modulus():
    # sigma_4(-1) = -4 becomes -2: still nonzero and not sigma_4(1), so the
    # kernels and vanishing sets stay and only |sigma(z)|^2 = sigma(1)^2 fails
    q8, Sq = theory_of("Q8")
    bad_sigma = tuple(
        tuple(Cyclotomic.from_rational(-2, v.order) if v == -4 else v for v in row)
        for row in Sq.sigma
    )
    corrupted = SuperTheory(Sq.table, Sq.xparts, Sq.yparts, Sq.ypart_classes, bad_sigma)
    assert [c.name for c in scd_check(corrupted).failures] == ["central-modulus-sigma-4-z1"]


def test_scd_not_applicable_off_vz():
    # S3 is not VZ: L-scd does not apply, and its conclusion, called anyway, is false
    s3, Ss = theory_of("S3")
    assert [hypothesis for _, hypothesis, _ in _CHECKERS["L-scd"](Ss)] == [False]
    assert concluded_at("L-scd", Ss, {}) == (False, {"failing": ["degree-sigma-2", "degree-set"]})


def test_u_rel_requires_s_normal():
    G, S = theory_of("S3")
    from superchar.errors import SuperTheoryError

    with pytest.raises(SuperTheoryError):
        u_rel(S, generated_subgroup(G, [1]))


# sha256 over json.dumps(v.to_json(), sort_keys=True) of every verdict, in order
CAMINA_VERDICTS = (8465, "885726da5a013d8a94166b995eac98c2002e5a2b2f52416f6ca58c772193449a")


def test_every_camina_verdict_of_the_default_catalog_is_pinned():
    # the corpus shows a verdict's witnesses only when a check fails; this
    # pins every verdict, witnesses included: per theory, each
    # element, gcp(N) and pair(N) per S-normal N, triple(N, M) per M <= N, VZ
    digest, count = hashlib.sha256(), 0
    for name in DEFAULT_CATALOG:
        for S in enumerate_scts(character_table_of(catalog_group(name))):
            subs = s_normal_subgroups(S)
            verdicts = [is_camina_element(S, g) for g in range(S.group.order)]
            verdicts += [is_s_gcp(S, N) for N in subs]
            verdicts += [is_camina_pair(S, N) for N in subs]
            verdicts += [is_camina_triple(S, N, M) for N in subs for M in subs if M.members <= N.members]
            verdicts.append(is_vz(S))
            for v in verdicts:
                assert all(not v.conditions[k] for k in v.witnesses)
                digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
            count += len(verdicts)
    assert (count, digest.hexdigest()) == CAMINA_VERDICTS
