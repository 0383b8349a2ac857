from math import lcm
from pathlib import Path

import pytest

from arith_oracle import key
from superchar.cyclotomic import Cyclotomic

from superchar.chartab import (
    CharacterTable,
    character_table_of,
    class_mult_coefficients,
    dixon_character_table,
    ingest_table,
    quotient_character_table,
    validate_table,
)
from superchar.errors import CharacterTableError, ConsistencyError
from superchar.groups import (
    GroupTable,
    catalog_group,
    conjugacy_classes,
    quotient_group,
)
from superchar.structure import normal_subgroups

DATA = Path(__file__).parent / "data"

CATALOG = [
    "C2", "C3", "C4", "C5", "C6", "C2xC2", "C8", "C2xC4", "C2xC2xC2",
    "S3", "D4", "Q8", "D5", "D6", "A4", "C3xC3", "D8", "Q16", "S4",
]


def rows_as_multiset(table):
    return sorted(tuple(key(v) for v in row) for row in table.values)


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


def test_class_mult_coefficients_are_computed_once_per_group(body_runs):
    G = catalog_group("S4")
    build = lambda: (dixon_character_table(G), class_mult_coefficients(G))
    assert body_runs(class_mult_coefficients, build) == 1
    assert class_mult_coefficients(G) is class_mult_coefficients(G)


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


def test_an_inflated_table_round_trips_in_its_parent_field():
    # C4/C2 and D4/Z(D4) have exponent 2; their tables keep C4's and D4's
    # field, exponent 4, and their text says so
    for name in ("C4", "D4"):
        G = catalog_group(name)
        N = next(N for N in normal_subgroups(G) if len(N) == 2)
        Q, _ = quotient_group(G, N)
        T = character_table_of(Q)
        assert T.exponent == 4 and Q.exponent() == 2
        again = ingest_table(T.to_text(), Q)
        assert again.exponent == 4 and again.values == T.values and again.to_text() == T.to_text()


def test_ingest_rejects_an_exponent_that_is_not_a_multiple():
    G = catalog_group("C4")
    text = (DATA / "c4.tbl").read_text()
    for e in (0, 2, 6):
        with pytest.raises(CharacterTableError, match=f"file declares {e}, not a multiple"):
            ingest_table(text.replace("exponent=4", f"exponent={e}"), G)
    assert ingest_table(text.replace("exponent=4", "exponent=8"), G).exponent == 8


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
        dixon_character_table(catalog_group("C65"))


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
            row.append(Cyclotomic(e, [0] * k + [1]))
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6", "C8", "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3"])
def test_dixon_matches_direct_abelian_characters(name):
    G = catalog_group(name)
    T = dixon_character_table(G)
    reference = sorted(
        tuple(key(v.lifted(T.exponent)) for v in row)
        for row in _abelian_reference_rows(name)
    )
    computed = sorted(tuple(key(v) for v in row) for row in T.values)
    assert computed == reference


@pytest.mark.parametrize("name", ["C30", "C42", "C2xC30"])
def test_the_principal_row_comes_first_whatever_the_coordinates(name):
    # in Q(zeta_30) zeta^23 = 1 + z - z^3 - z^4 - z^5 + z^7 starts with the
    # coordinates (1, 1) of 1 = (1, 0, ...), so descending coordinates alone
    # put a linear character before the principal one and validation failed
    G = catalog_group(name)
    T = dixon_character_table(G)
    assert T.validation.ok
    assert all(v == 1 for v in T.values[0])
    assert sorted(tuple(key(v.lifted(T.exponent)) for v in row) for row in _abelian_reference_rows(name)) == rows_as_multiset(T)


@pytest.mark.parametrize(
    "name", CATALOG + ["C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5"]
)
def test_quotient_tables_equal_fresh_dixon_tables(name):
    # every normal subgroup N: the table inflated from G's table stays in
    # G's field and holds the rows of the Dixon table of a fresh copy of
    # G/N lifted to that field, class by class; the row order is not
    # compared, as Dixon's canonical order is taken in G/N's own field.
    # G/{1} is G, and its table is T
    G = catalog_group(name)
    T = character_table_of(G)
    for N in normal_subgroups(G):
        Q, _ = quotient_group(G, N)
        inflated = quotient_character_table(T, N)
        fresh = dixon_character_table(GroupTable(Q.mul, label=Q.label))
        assert inflated.exponent == T.exponent
        assert fresh.exponent == Q.exponent()
        assert (inflated.reps, inflated.sizes) == (fresh.reps, fresh.sizes)
        assert rows_as_multiset(inflated) == sorted(
            tuple(key(v.lifted(T.exponent)) for v in row) for row in fresh.values
        )
        assert inflated.validation.ok
        assert character_table_of(Q) is inflated is quotient_character_table(T, N)
        if len(N) == 1:
            assert Q is G and inflated is T
        else:
            assert [c.name for c in inflated.validation.checks] == ["shape", "degree-sum", "principal-row"]


def test_quotient_table_rejects_an_inconsistent_parent_table():
    # a table that lost a row of the quotient's characters lacks a character
    # of G/N: the count proof fails instead of returning a short table
    G = catalog_group("S3")
    T = character_table_of(G)
    N = next(N for N in normal_subgroups(G) if len(N) == 3)
    [sign] = [t for t in range(1, len(T.values)) if not N.mask & ~T.char_kernel(t).mask]
    broken = CharacterTable(G, T.values[:sign] + T.values[sign + 1:], T.exponent)
    with pytest.raises(ConsistencyError, match="shape"):
        quotient_character_table(broken, N)
