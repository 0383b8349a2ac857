"""Each deflation S^{G/N}, N != {1}, derived on the table of G/N equals
the one the package built before (`quotient_oracle.deflation`): the parts
of S inside Irr(G/N) renumbered by the rows they inflate to, the images of
its superclasses, and its values lowered from S."""

import pytest

import quotient_oracle as oracle
from arith_oracle import key
from superchar.chartab import character_table_of
from superchar.groups import catalog_group, quotient_group
from superchar.structure import s_normal_subgroups
from superchar.supertheory import coarsest, deflation, finest
from superchar.verifier import DEFAULT_CATALOG, _theories_for

# the extremes-only groups of the benchmark's large-groups workload
LARGE_EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def _values(rows):
    return [[key(v) for v in row] for row in rows]


def assert_deflations_match_the_oracle(table, theories) -> int:
    """Compare every nontrivial deflation of the theories on table with the
    oracle's; returns the number of (S, N) pairs compared."""
    G, records, pairs = table.group, {}, 0
    for S in theories:
        for N in s_normal_subgroups(S):
            if len(N) == 1:
                continue
            quotient = quotient_group(G, N)
            if N not in records:
                records[N] = oracle.quotient_character_table(table, N, quotient)
            built, D = oracle.deflation(S, N, quotient, records[N]), deflation(S, N)
            assert D.table is character_table_of(quotient[0])
            assert _values(D.table.values) == _values(records[N][0].values)
            assert (D.xparts, D.yparts, D.ypart_classes) == (built.xparts, built.yparts, built.ypart_classes)
            assert _values(D.sigma) == _values(built.sigma)
            pairs += 1
    return pairs


def test_the_default_catalog_deflates_as_the_oracle_builds():
    pairs = 0
    for name in DEFAULT_CATALOG:
        table = character_table_of(catalog_group(name))
        pairs += assert_deflations_match_the_oracle(table, _theories_for(table, True)[0])
    assert pairs == 911


@pytest.mark.parametrize("name", LARGE_EXTREMES)
def test_the_large_extremes_deflate_as_the_oracle_builds(name):
    table = character_table_of(catalog_group(name))
    assert assert_deflations_match_the_oracle(table, [finest(table), coarsest(table)]) > 0
