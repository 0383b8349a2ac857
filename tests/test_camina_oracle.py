"""The Camina verdicts read off one mask per condition and theory against
the per-element scans of `camina_oracle.py`: the same `to_json()`,
`holds`, `agreement` and `vacuous` for every verdict, `gcp_holds` equal to
the oracle's `holds`, the same T-ugroupp rows, and L-ukernel failing where
a planted U(S|N) differs from the oracle's element-by-element U(S|N)."""

import io

import pytest

from superchar.chartab import character_table_of
from superchar.cyclotomic import Cyclotomic
from superchar.groups import catalog_group, full_subgroup, quotient_image, trivial_subgroup
from superchar.structure import s_normal_subgroups
from superchar.supertheory import coarsest, deflation, enumerate_scts, finest
from superchar.vanishing import gcp_holds, is_camina_element, is_camina_pair, is_camina_triple, is_s_gcp
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG, run_corpus

import camina_oracle


def assert_same(verdict, expected):
    assert verdict.to_json() == expected.to_json()
    assert (verdict.holds, verdict.agreement, verdict.vacuous) == (expected.holds, expected.agreement, expected.vacuous)


def concluded(rows):
    """Each (scope, hypothesis, conclusion) row with its conclusion called,
    where its hypothesis holds or not, before the next row is pulled."""
    return [(scope, hypothesis, conclusion()) for scope, hypothesis, conclusion in rows]


def assert_theory_matches_oracle(S):
    """Every verdict of S, those on the (deflation, image) pairs that L-cp
    reaches included, and S's T-ugroupp rows are the oracle's."""
    subs = s_normal_subgroups(S)
    for g in range(S.group.order):
        assert_same(is_camina_element(S, g), camina_oracle.is_camina_element(S, g))
    for N in subs:
        expected = camina_oracle.is_s_gcp(S, N)
        assert_same(is_s_gcp(S, N), expected)
        assert gcp_holds(S, N) == expected.holds
        assert_same(is_camina_pair(S, N), camina_oracle.is_camina_pair(S, N))
        for M in subs:
            if M.members <= N.members:
                assert_same(is_camina_triple(S, N, M), camina_oracle.is_camina_triple(S, N, M))
        if not expected.holds:
            continue
        for K in subs:
            if K.members <= N.members:
                defl, image = deflation(S, K), quotient_image(S.group, K, N)
                expected_quotient = camina_oracle.is_s_gcp(defl, image)
                assert gcp_holds(defl, image) == expected_quotient.holds
                assert_same(is_s_gcp(defl, image), expected_quotient)
    assert concluded(_CHECKERS["T-ugroupp"](S)) == concluded(camina_oracle.check_ugroupp(S))


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_every_verdict_of_the_default_catalog_matches_the_oracle(name):
    for S in enumerate_scts(character_table_of(catalog_group(name))):
        assert_theory_matches_oracle(S)


@pytest.mark.slow
def test_every_verdict_of_the_large_extremes_matches_the_oracle():
    for name in ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32"):
        table = character_table_of(catalog_group(name))
        for S in (finest(table), coarsest(table)):
            assert_theory_matches_oracle(S)


@pytest.mark.parametrize("wrong_u", [trivial_subgroup, full_subgroup])
def test_failing_ugroupp_rows_match_the_oracle(wrong_u, monkeypatch):
    # with U(S|N) replaced, T-ugroupp's rows are still the oracle's, and test
    # only the vanishing property and maximality.  U(S|N) as a kernel
    # intersection is L-ukernel's: it fails at exactly the N where the planted
    # U differs from the intersection, read element by element
    planted = lambda S, N: wrong_u(S.group)
    monkeypatch.setattr("superchar.verifier.u_rel", planted)
    monkeypatch.setattr(camina_oracle, "u_rel", planted)
    differing = 0
    for name in ("S3", "D4", "Q8", "A4", "S4"):
        for S in enumerate_scts(character_table_of(catalog_group(name))):
            rows = concluded(_CHECKERS["T-ugroupp"](S))
            assert rows == concluded(camina_oracle.check_ugroupp(S))
            assert not [f for _, _, (_, w) in rows if w for f in w["failing"] if "membership-" in f]
            for scope, _, (holds, _) in concluded(_CHECKERS["L-ukernel"](S)):
                differs = camina_oracle.u_by_membership(S, scope["n"]) != wrong_u(S.group).members
                assert holds != differs
                differing += differs
    assert differing


def test_the_corpus_formats_no_cyclotomic(monkeypatch):
    # no report fails, so no verdict is shown and none formats its witnesses
    calls = []
    to_text = Cyclotomic.__str__
    monkeypatch.setattr(Cyclotomic, "__str__", lambda self: calls.append(1) or to_text(self))
    run_corpus(["S3", "D4", "Q8", "C2xC2xC2", "S4"], out=io.BytesIO())
    assert len(calls) == 0
