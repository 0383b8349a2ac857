"""The packed sums and decisions against the object-arithmetic oracle in
arith_oracle.py.

Every table validation, sigma row and derivation key (read back from its
packed int) must equal the oracle's in normal form, the packed derivation
keys must group the characters into the oracle's fibers, and the failing
pairs of both orthogonality relations, of tables and of supercharacter
theories, and the row and column orthogonality verdicts must be those of
the oracle's term-by-term Gram triangles, on every theory of the default
corpus and on the groups of the large-groups benchmark workload, and
under planted perturbations of the values.
"""

import io
import random
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
    sigma_failures,
    sigma_gram,
    table_failures,
    table_gram,
    validate_table,
)
from schur_oracle import fibers
from superchar import chartab, cyclotomic, supertheory
from superchar.chartab import CharacterTable, character_table_of
from superchar.cyclotomic import Cyclotomic
from superchar.groups import build_group
from superchar.supertheory import (
    SuperTheory,
    _central_character_keys,
    _packed_values,
    _sigma_class_values,
    coarsest,
    enumerate_scts,
    finest,
    sigma_orthogonality,
)
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG, _theories_for, run_corpus

LARGE_TABLES = ("D32", "Q64", "C5xC5")
LARGE_EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32", "C17", "C4xC5")


def _keys(values):
    return [key(v) for v in values]


def _assert_table_agrees(table):
    gram = table_gram(table)
    ones = [1] * len(table.values)
    assert chartab.orthogonality(table.exponent, table.values, table.sizes, ones, ones) == table_failures(table, gram)
    assert chartab.validate_table(table).to_json() == validate_table(table, gram).to_json()


def _assert_orthogonality_agrees(S):
    gram = sigma_gram(S)
    assert sigma_orthogonality(S) == sigma_failures(S, gram)
    for tid, expected in (("P-roworth", row_orthogonality(S, gram)), ("P-colorth", column_orthogonality(S, gram))):
        [(_, hypothesis, conclusion)] = _CHECKERS[tid](S)
        assert (hypothesis, conclusion()) == (True, (expected is None, expected))


def _assert_theory_agrees(S):
    table = S.table
    for part in S.xparts:
        assert _keys(_sigma_class_values(table, part)) == _keys(sigma_class_values(table, part))
    packed_keys = _central_character_keys(table, S.ypart_classes)
    expected = central_character_keys(table, S.ypart_classes)
    pk, scale = _packed_values(table)[0], lcm(*table.degrees)
    assert [tuple(key(pk.unpack(k, scale)) for k in row) for row in packed_keys] == expected
    assert fibers(packed_keys) == fibers(expected)
    _assert_orthogonality_agrees(S)


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


def _perturbed(v, rng):
    # v plus c zeta^k, its conjugate, its negative or v times c zeta^k, for
    # a random power of zeta and c in {-2, -1, 1, 2}
    e = v.order
    step = Ref(e, [0] * rng.randrange(e) + [rng.choice((-2, -1, 1, 2))])
    return ((Ref.of(v) + step).value(), v.conjugate(), Ref.of(v).scale(-1).value(), (Ref.of(v) * step).value())[rng.randrange(4)]


def test_planted_perturbations_match_the_oracle():
    # one entry of sigma (or of a table) changed at a time, the identity
    # column only by an int that keeps the degree positive: every decision
    # is the oracle's, and the failing pairs found cover the diagonal and
    # the off-diagonal entries of both relations
    rng = random.Random(22)
    seen, passed, planted = set(), 0, 0
    for name in ("C4", "C5", "S3", "D4", "Q8", "C2xC4", "D5", "A4", "C3xC3", "Q16"):
        table = character_table_of(build_group(name))
        for S in enumerate_scts(table)[:6]:
            for _ in range(4):
                sigma = [list(row) for row in S.sigma]
                i, y = rng.randrange(len(sigma)), rng.randrange(len(sigma[0]))
                if y == 0:
                    degree = sigma[i][0].integer_value() + rng.choice((-1, 1, 2))
                    if degree <= 0:
                        continue
                    sigma[i][0] = Cyclotomic.from_rational(degree, table.exponent)
                else:
                    sigma[i][y] = _perturbed(sigma[i][y], rng)
                P = SuperTheory(table, S.xparts, S.yparts, S.ypart_classes, tuple(map(tuple, sigma)))
                _assert_orthogonality_agrees(P)
                rows, cols = sigma_orthogonality(P)
                seen |= {("row", a == b) for a, b in rows} | {("column", k == l) for k, l in cols}
                passed += not rows and not cols
                planted += 1
        values = [list(row) for row in table.values]
        for _ in range(6):
            i, k = rng.randrange(len(values)), rng.randrange(1, len(values[0]))
            changed = [list(row) for row in values]
            changed[i][k] = _perturbed(values[i][k], rng)
            _assert_table_agrees(CharacterTable(table.group, changed, table.exponent))
    assert seen == {("row", True), ("row", False), ("column", True), ("column", False)}
    assert 0 < passed < planted


def test_orthogonality_builds_no_cyclotomic_value(monkeypatch):
    # validate_table, P-roworth and P-colorth decide every Gram entry on
    # ints: no value is built inside `chartab.orthogonality`
    state = {"inside": False, "calls": 0, "built": 0}
    orthogonality = chartab.orthogonality

    def traced(*args):
        state["calls"] += 1
        state["inside"] = True
        try:
            return orthogonality(*args)
        finally:
            state["inside"] = False

    def counted(build):
        def count(*args):
            state["built"] += state["inside"]
            return build(*args)
        return count

    monkeypatch.setattr(chartab, "orthogonality", traced)
    monkeypatch.setattr(supertheory, "orthogonality", traced)
    monkeypatch.setattr(cyclotomic, "_value", counted(cyclotomic._value))
    monkeypatch.setattr(Cyclotomic, "__init__", counted(Cyclotomic.__init__))
    run_corpus(["S3", "D4", "Q8", "C2xC2xC2", "S4"], out=io.BytesIO())
    assert state["calls"] and state["built"] == 0
