"""Light's associativity test in GroupTable against the all-triples check.

GroupTable checks (ab)c = a(bc) for b over its greedy generators only.  On
every normalized Latin square of order at most 6 (first row and column in
natural order, so 0 is a two-sided identity) it must accept exactly the
tables that pass the brute-force check over all triples, and a rejection
for associativity must name a triple that fails.
"""

import re
from itertools import product
from math import log2

import pytest

from superchar.errors import GroupConstructionError
from superchar.groups import GroupTable, build_group, generated_subgroup
from superchar.verifier import DEFAULT_CATALOG
from test_dixon_oracle import BENCHMARK_GROUPS


def normalized_latin_squares(n):
    """Every n x n Latin square on 0..n-1 with row 0 and column 0 equal to
    0..n-1, filled row by row."""
    square = [list(range(n))] + [[g] + [None] * (n - 1) for g in range(1, n)]
    cells = [(g, c) for g in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        g, c = cells[k]
        used = set(square[g][:c]) | {square[h][c] for h in range(g)}
        for x in range(n):
            if x not in used:
                square[g][c] = x
                yield from fill(k + 1)
        square[g][c] = None

    return fill(0)


def associative(rows):
    n = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]] for a, b, c in product(range(n), repeat=3))


@pytest.mark.parametrize("n, count, groups", [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_light_test_accepts_exactly_the_associative_squares(n, count, groups):
    seen = accepted = 0
    for rows in normalized_latin_squares(n):
        seen += 1
        try:
            GroupTable(rows)
        except GroupConstructionError as exc:
            assert not associative(rows)
            m = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
            if m:
                a, b, c = map(int, m.groups())
                assert rows[rows[a][b]][c] != rows[a][rows[b][c]]
            else:
                assert "has no two-sided inverse" in str(exc)
        else:
            assert associative(rows)
            accepted += 1
    assert (seen, accepted) == (count, groups)


@pytest.mark.parametrize("name", DEFAULT_CATALOG + BENCHMARK_GROUPS)
def test_catalog_generators_reach_every_element(name):
    G = build_group(name)
    assert len(generated_subgroup(G, G.gens)) == G.order
    assert len(G.gens) <= log2(G.order) or G.order == 1
