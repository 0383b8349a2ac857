from math import lcm
from pathlib import Path

import pytest

from superchar.cyclotomic import Cyclotomic

from superchar.chartab import (
    CharacterTable,
    character_table_of,
    class_mult_coefficients,
    dixon_character_table,
    ingest_table,
    validate_table,
)
from superchar.errors import CharacterTableError
from superchar.groups import catalog_group, conjugacy_classes

DATA = Path(__file__).parent / "data"

CATALOG = [
    "C2", "C3", "C4", "C5", "C6", "C2xC2", "C8", "C2xC4", "C2xC2xC2",
    "S3", "D4", "Q8", "D5", "D6", "A4", "C3xC3", "D8", "Q16", "S4",
]


def rows_as_multiset(table):
    return sorted(tuple(v.key() for v in row) for row in table.values)


def test_class_mult_coefficients_identity_class():
    G = catalog_group("S3")
    a = class_mult_coefficients(G)
    r = len(conjugacy_classes(G))
    for j in range(r):
        for k in range(r):
            assert a[0][j][k] == (1 if j == k else 0)


def test_class_mult_coefficients_s3_transpositions():
    G = catalog_group("S3")
    a = class_mult_coefficients(G)
    # class 1 is the transpositions; products of two transpositions cover
    # the identity (3 ways) and the 3-cycles
    assert a[1][1][0] == 3
    assert a[1][1][1] == 0
    assert a[1][1][2] == 3


def test_class_mult_coefficients_abelian_are_boolean():
    G = catalog_group("C2xC4")
    a = class_mult_coefficients(G)
    assert all(x in (0, 1) for p in a for row in p for x in row)


def test_class_mult_coefficients_are_computed_once_per_group():
    G = catalog_group("S4")
    dixon_character_table(G)
    assert class_mult_coefficients(G) is class_mult_coefficients(G) is G._memo["class_mult"]


def test_dixon_c2():
    T = dixon_character_table(catalog_group("C2"))
    assert [[str(v) for v in row] for row in T.values] == [["1", "1"], ["1", "-1"]]


def test_dixon_s3_values():
    T = dixon_character_table(catalog_group("S3"))
    assert T.degrees == (1, 1, 2)
    two = T.values[2]
    assert two[1].is_zero()          # transpositions
    assert two[2] == -1              # 3-cycles


def test_dixon_q8_degree_two_row():
    T = dixon_character_table(catalog_group("Q8"))
    assert T.degrees == (1, 1, 1, 1, 2)
    assert [str(v) for v in T.values[4]] == ["2", "-2", "0", "0", "0"]


def test_dixon_a4_has_cube_roots():
    T = dixon_character_table(catalog_group("A4"))
    assert sorted(T.degrees) == [1, 1, 1, 3]
    assert any(not v.is_rational() for row in T.values for v in row)


@pytest.mark.parametrize("name", CATALOG)
def test_dixon_validates_exactly_on_catalog(name):
    T = dixon_character_table(catalog_group(name))
    report = validate_table(T)
    assert report.ok, str(report)
    assert T.values[0][0] == 1 and T.degrees[0] == 1


@pytest.mark.parametrize("name,path", [("S3", "s3.tbl"), ("C4", "c4.tbl"), ("Q8", "q8.tbl")])
def test_dixon_matches_golden_tables(name, path):
    G = catalog_group(name)
    computed = dixon_character_table(G)
    reference = ingest_table((DATA / path).read_text(), G)
    assert rows_as_multiset(computed) == rows_as_multiset(reference)


def test_ingest_accepts_well_formed_c2():
    G = catalog_group("C2")
    text = "chartab C2 classes=2 exponent=2\nclass 0 size=1 rep=0\nclass 1 size=1 rep=1\n1, 1\n1, -1\n"
    T = ingest_table(text, G)
    assert T.degrees == (1, 1)


def test_ingest_rejects_class_mismatch():
    G = catalog_group("S3")
    with pytest.raises(CharacterTableError, match="class mismatch"):
        ingest_table((DATA / "s3_bad_class.tbl").read_text(), G)


def test_ingest_rejects_orthogonality_failure():
    G = catalog_group("S3")
    with pytest.raises(CharacterTableError, match="orthogonality"):
        ingest_table((DATA / "s3_bad_orth.tbl").read_text(), G)


def test_ingest_rejects_malformed_header_and_counts():
    G = catalog_group("C2")
    with pytest.raises(CharacterTableError):
        ingest_table("not a table", G)
    with pytest.raises(CharacterTableError):
        ingest_table("chartab C2 classes=3 exponent=2\n", G)
    with pytest.raises(CharacterTableError):
        ingest_table("chartab C2 classes=2 exponent=4\n", G)


def test_validate_reports_the_failing_pair():
    G = catalog_group("C4")
    T = dixon_character_table(G)
    rows = [list(row) for row in T.values]
    rows[1] = list(rows[2])  # duplicate a row: orthogonality must fail
    corrupted = CharacterTable(G, rows, T.exponent)
    report = validate_table(corrupted)
    assert not report.ok
    assert any(c.name == "row-orthogonality" and not c.ok for c in report.checks)
    failing = next(c for c in report.checks if c.name == "row-orthogonality")
    assert "chi_1" in failing.detail


def test_text_round_trip():
    G = catalog_group("D4")
    T = character_table_of(G)
    again = ingest_table(T.to_text(), G)
    assert rows_as_multiset(T) == rows_as_multiset(again)


def test_values_are_algebraic_integers_of_the_exponent_field():
    for name in ("S3", "Q8", "A4", "D5"):
        T = character_table_of(catalog_group(name))
        assert all(v.is_integral() and v.order == T.exponent for row in T.values for v in row)


def test_char_kernels():
    G = catalog_group("S3")
    T = character_table_of(G)
    assert T.char_kernel(0).sorted_members() == tuple(range(6))
    assert len(T.char_kernel(1)) == 3
    assert T.char_kernel(2).sorted_members() == (0,)


def test_order_guard():
    with pytest.raises(CharacterTableError):
        dixon_character_table(catalog_group("C4"), max_group_order=2)


def _abelian_reference_rows(name):
    # independent oracle for abelian groups: character values come straight
    # from the duality formula, no class matrices involved
    factors = [int(f[1:]) for f in name.split("x")]
    e = lcm(*factors)

    def decode(x):
        out = []
        for n in reversed(factors):
            x, r = divmod(x, n)
            out.append(r)
        return tuple(reversed(out))

    order = 1
    for n in factors:
        order *= n
    rows = []
    for t in range(order):
        ts = decode(t)
        row = []
        for g in range(order):
            gs = decode(g)
            k = sum((e // n) * a * b for n, a, b in zip(factors, ts, gs))
            row.append(Cyclotomic.root(e, k))
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6", "C8", "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3"])
def test_dixon_matches_direct_abelian_characters(name):
    G = catalog_group(name)
    T = dixon_character_table(G)
    reference = sorted(
        tuple(v.lifted(T.exponent).key() for v in row)
        for row in _abelian_reference_rows(name)
    )
    computed = sorted(tuple(v.key() for v in row) for row in T.values)
    assert computed == reference
