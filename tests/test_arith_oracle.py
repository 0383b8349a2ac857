"""The packed sums against the object-arithmetic oracle in arith_oracle.py.

Every table validation, sigma row, derivation key and row or column
orthogonality value must equal the oracle's in normal form, on every
theory of the default corpus and on the groups of the large-groups
benchmark workload.
"""

from fractions import Fraction

import pytest

from arith_oracle import (
    Ref,
    central_character_keys,
    column_orthogonality,
    row_orthogonality,
    sigma_class_values,
    validate_table,
)
from superchar import chartab
from superchar.chartab import CharacterTable, character_table_of
from superchar.groups import build_group
from superchar.supertheory import (
    _central_character_keys,
    _sigma_class_values,
    check_column_orthogonality,
    check_row_orthogonality,
    coarsest,
    finest,
)
from superchar.verifier import DEFAULT_CATALOG, _theories_for

LARGE_TABLES = ("D32", "Q64", "C5xC5")
LARGE_EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def _keys(values):
    return [v.key() for v in values]


def _assert_table_agrees(table):
    assert chartab.validate_table(table).to_json() == validate_table(table).to_json()


def _assert_theory_agrees(S):
    table = S.table
    for part in S.xparts:
        assert _keys(_sigma_class_values(table, part)) == _keys(sigma_class_values(table, part))
    assert _central_character_keys(table, S.ypart_classes) == central_character_keys(
        table, S.ypart_classes
    )
    assert check_row_orthogonality(S).to_json() == row_orthogonality(S).to_json()
    reps = [min(b) for b in S.yparts.blocks]
    for g in reps:
        for h in reps:
            value, expected, ok = check_column_orthogonality(S, g, h)
            o_value, o_expected, o_ok = column_orthogonality(S, g, h)
            assert (value.key(), expected.key(), ok) == (o_value.key(), o_expected.key(), o_ok)


def test_packed_sums_match_the_oracle_on_the_default_corpus():
    count = 0
    for spec in DEFAULT_CATALOG:
        table = character_table_of(build_group(spec))
        _assert_table_agrees(table)
        theories, _ = _theories_for(table, True)
        for S in theories:
            _assert_theory_agrees(S)
        count += len(theories)
    assert count == 285


@pytest.mark.parametrize("name", LARGE_TABLES + LARGE_EXTREMES)
def test_packed_sums_match_the_oracle_on_large_groups(name):
    table = character_table_of(build_group(name))
    _assert_table_agrees(table)
    if name in LARGE_EXTREMES:
        _assert_theory_agrees(finest(table))
        _assert_theory_agrees(coarsest(table))


def test_failing_validation_reports_match_the_oracle():
    # a duplicated row, a fractional value and a wrong column each fail
    # orthogonality; the first failing pair must be the oracle's
    table = character_table_of(build_group("Q8"))
    rows = [list(row) for row in table.values]
    halved = [Ref.of(v).scale(Fraction(1, 2)).value() for v in rows[1][1:]]
    variants = [
        rows[:1] + [rows[2]] + rows[2:],
        [rows[0], rows[1][:1] + halved] + rows[2:],
        [row[:3] + [Ref.of(row[3]).scale(-1).value()] + row[4:] for row in rows],
    ]
    for values in variants:
        T = CharacterTable(table.group, values, table.exponent)
        report = chartab.validate_table(T)
        assert not report.ok
        assert report.to_json() == validate_table(T).to_json()
