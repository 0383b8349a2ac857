"""G/{1} is G itself: the package's trivial quotient, its table and each
deflation by {1} against the coset construction of `quotient_oracle.py`,
and pins on what the corpus no longer builds."""

import io

import pytest

from arith_oracle import key
from quotient_oracle import deflation as oracle_deflation
from quotient_oracle import quotient_character_table as oracle_table
from quotient_oracle import quotient_group as oracle_quotient
from superchar.chartab import character_table_of, quotient_character_table
from superchar.groups import GroupTable, catalog_group, preimage, quotient_group, quotient_image, trivial_subgroup
from superchar.structure import s_normal_subgroups
from superchar.supertheory import SuperTheory, coarsest, deflation, finest
from superchar.verifier import DEFAULT_CATALOG, _theories_for, run_corpus

# the extremes-only groups of the benchmark's large-groups workload
LARGE_EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def _values(rows):
    return [[key(v) for v in row] for row in rows]


def assert_trivial_quotients_match_the_oracle(table, theories):
    """The coset construction of G/{1}, its inflated table and each
    deflation by {1} equal G with the identity projection, T and S."""
    G = table.group
    one = trivial_subgroup(G)
    Q, proj = oracle_quotient(G, one)
    assert quotient_group(G, one) == (G, proj) and proj == tuple(range(G.order))
    assert Q.mul == G.mul and Q is not G
    inflated, inflates = oracle_table(table, one, (Q, proj))
    assert quotient_character_table(table, one) is table
    assert inflates == tuple(range(len(table.values)))
    assert (inflated.exponent, inflated.reps, inflated.sizes) == (table.exponent, table.reps, table.sizes)
    assert _values(inflated.values) == _values(table.values)
    for S in theories:
        D = oracle_deflation(S, one, (Q, proj), (inflated, inflates))
        assert deflation(S, one) is S
        assert (D.xparts, D.yparts, D.ypart_classes) == (S.xparts, S.yparts, S.ypart_classes)
        assert _values(D.sigma) == _values(S.sigma)
        for H in s_normal_subgroups(S):
            assert quotient_image(G, one, H) is H and preimage(G, one, H) is H


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_trivial_quotients_of_the_default_catalog_match_the_oracle(name):
    table = character_table_of(catalog_group(name))
    theories, _ = _theories_for(table, True)
    assert_trivial_quotients_match_the_oracle(table, theories)


@pytest.mark.parametrize("name", LARGE_EXTREMES)
def test_trivial_quotients_of_the_large_extremes_match_the_oracle(name):
    table = character_table_of(catalog_group(name))
    assert_trivial_quotients_match_the_oracle(table, [finest(table), coarsest(table)])


def test_the_corpus_builds_no_trivial_quotient(monkeypatch):
    # every group built is a catalog group or the quotient by a subgroup
    # of more than one element, whose label ends in /H<order of N>
    labels = []
    init = GroupTable.__init__
    monkeypatch.setattr(GroupTable, "__init__", lambda self, *args, **kw: init(self, *args, **kw) or labels.append(self.label))
    run_corpus(["S3", "D4", "Q8", "C2xC2xC2", "S4"], out=io.BytesIO())
    assert any("/H" in label for label in labels)
    assert not any(label.endswith("/H1") for label in labels)


def test_the_default_corpus_builds_each_theory_and_group_once(monkeypatch):
    # the 285 theories of the catalog and 161 deflations by subgroups of
    # more than one element; 57 groups for the 19 catalog groups, their
    # factors and partial products included, and 79 quotients by subgroups
    # of more than one element
    counts = {"theories": 0, "groups": 0}
    theory_init, group_init = SuperTheory.__init__, GroupTable.__init__

    def count_theory(self, *args):
        counts["theories"] += 1
        theory_init(self, *args)

    def count_group(self, *args, **kw):
        counts["groups"] += 1
        group_init(self, *args, **kw)

    monkeypatch.setattr(SuperTheory, "__init__", count_theory)
    monkeypatch.setattr(GroupTable, "__init__", count_group)
    run_corpus(DEFAULT_CATALOG, out=io.BytesIO())
    assert counts == {"theories": 446, "groups": 136}
