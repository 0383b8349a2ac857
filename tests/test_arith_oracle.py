"""The packed sums against the object-arithmetic oracle in arith_oracle.py.

Every entry of both orthogonality Gram triangles, of tables and of
supercharacter theories, every table validation, sigma row, derivation
key (read back from its packed int), and row and column orthogonality
verdict must equal the oracle's in normal form, and the packed derivation
keys must group the characters into the oracle's fibers, on every theory
of the default corpus and on the groups of the large-groups benchmark
workload.
"""

from fractions import Fraction
from math import lcm

import pytest

from arith_oracle import (
    Ref,
    central_character_keys,
    key,
    column_orthogonality,
    row_orthogonality,
    sigma_class_values,
    sigma_gram,
    table_gram,
    validate_table,
)
from schur_oracle import fibers
from superchar import chartab
from superchar.chartab import CharacterTable, character_table_of
from superchar.groups import build_group
from superchar.supertheory import (
    _central_character_keys,
    _packed_values,
    _sigma_class_values,
    coarsest,
    finest,
    sigma_orthogonality,
)
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG, _theories_for

LARGE_TABLES = ("D32", "Q64", "C5xC5")
LARGE_EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def _keys(values):
    return [key(v) for v in values]


def _gram_keys(triangles):
    return [[_keys(row) for row in triangle] for triangle in triangles]


def _assert_table_agrees(table):
    gram = table_gram(table)
    packed = chartab.orthogonality(table.exponent, table.values, table.sizes, [1] * len(table.values))
    assert _gram_keys(packed) == _gram_keys(gram)
    assert chartab.validate_table(table).to_json() == validate_table(table, gram).to_json()


def _assert_theory_agrees(S):
    table = S.table
    for part in S.xparts:
        assert _keys(_sigma_class_values(table, part)) == _keys(sigma_class_values(table, part))
    packed_keys = _central_character_keys(table, S.ypart_classes)
    expected = central_character_keys(table, S.ypart_classes)
    pk, scale = _packed_values(table)[0], lcm(*table.degrees)
    assert [tuple(key(pk.unpack(k, scale)) for k in row) for row in packed_keys] == expected
    assert fibers(packed_keys) == fibers(expected)
    rows, cols = sigma_gram(S)
    assert _gram_keys(sigma_orthogonality(S)) == _gram_keys((rows, cols))
    for tid, expected in (("P-roworth", row_orthogonality(S, rows)), ("P-colorth", column_orthogonality(S, cols))):
        [(_, status, witness)] = _CHECKERS[tid](S)
        assert (status, witness) == ("pass" if expected is None else "fail", expected)


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
        assert not chartab.validate_table(T).ok
        _assert_table_agrees(T)
