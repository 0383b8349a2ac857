"""The packed class-side search and derivation keys against schur_oracle.py.

The search must list the same central Schur rings in the same order as the
unpacked search, also under relabelings of the elements, which change the
class order it runs in; the packed derivation keys must group the
characters as the unpacked keys do on every theory derived.
"""

import random
from types import SimpleNamespace

import pytest

from schur_oracle import _central_schur_rings as oracle_rings
from schur_oracle import fibers, unpacked_character_keys
from superchar.chartab import character_table_of, class_mult_coefficients
from superchar.errors import ConsistencyError
from superchar.groups import ElementPartition, GroupTable, build_group
from superchar.supertheory import (
    MAX_CLASSES,
    _central_character_keys,
    _central_schur_rings,
    enumerate_scts,
    sct_from_class_partition,
)
from superchar.verifier import DEFAULT_CATALOG, _theories_for

# the catalog groups of at most MAX_CLASSES classes that the tests, the
# benchmark and the roadmap's extended corpus use beyond the default corpus
MORE = (
    "C7", "C9", "C10", "C11", "C12", "D7", "D9", "D10", "D12", "D16", "Q32",
    "C2xC6", "C3xS3", "S3xS3", "A4xC2", "D4xC2", "Q8xC2", "S4xC2", "C2xC2xC3",
)


def relabeled(G, seed):
    """G with its nonidentity elements renumbered by a seeded shuffle."""
    rest = list(range(1, G.order))
    random.Random(seed).shuffle(rest)
    new = [0] + rest
    mul = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            mul[new[a]][new[b]] = new[G.mul[a][b]]
    return GroupTable(mul, f"{G.label}@{seed}")


def _assert_search_agrees(table):
    assert table.n_classes <= MAX_CLASSES
    assert list(_central_schur_rings(table)) == list(oracle_rings(table))


@pytest.mark.parametrize("name", DEFAULT_CATALOG + MORE)
def test_packed_search_matches_the_oracle(name):
    _assert_search_agrees(character_table_of(build_group(name)))


@pytest.mark.parametrize("name", ["D4xC2", "C2xC2xC2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_search_matches_the_oracle_on_relabelings(name, seed):
    G = build_group(name)
    H = relabeled(G, seed)
    assert class_mult_coefficients(H) != class_mult_coefficients(G)
    _assert_search_agrees(character_table_of(H))


def _assert_keys_agree(theories):
    for S in theories:
        packed = _central_character_keys(S.table, S.ypart_classes)
        assert fibers(packed) == fibers(unpacked_character_keys(S.table, S.ypart_classes))
        assert fibers(packed) == sorted(sorted(p) for p in S.xparts)


def test_packed_keys_match_the_unpacked_keys_on_the_default_corpus():
    count = 0
    for name in DEFAULT_CATALOG:
        theories, _ = _theories_for(character_table_of(build_group(name)), True)
        _assert_keys_agree(theories)
        count += len(theories)
    assert count == 285


def test_packed_keys_match_the_unpacked_keys_on_d4xc2():
    theories = enumerate_scts(character_table_of(build_group("D4xC2")))
    assert len(theories) == 215
    _assert_keys_agree(theories)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["D32", "Q64"])
def test_search_beyond_the_guard(name):
    # 19 classes: past the guard of enumerate_scts, which stays where it is
    table = character_table_of(build_group(name))
    assert table.n_classes == 19 > MAX_CLASSES
    rings = list(_central_schur_rings(table))
    assert len(rings) == 116
    for blocks in rings:
        yparts = ElementPartition(
            table.group.order, [set().union(*(table.classes.blocks[c] for c in b)) for b in blocks]
        )
        assert sct_from_class_partition(table, yparts) is not None


def test_class_constants_refuse_orders_that_overflow_a_byte():
    # a byte of a packed product counts pairs of elements, so it holds at
    # most |G|; from order 256 on the search refuses rather than carry
    table = SimpleNamespace(group=SimpleNamespace(order=256))
    with pytest.raises(ConsistencyError, match="order 256"):
        next(_central_schur_rings(table))
