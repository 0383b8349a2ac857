"""Packed Dixon tables against dixon_oracle.py, and the packed widths.

The lift and the eigenspace split run on ints packed at the widths
`_lift_width` and `_split_width`; the oracle runs them on lists.  Every
table must come out the same, value for value and byte for byte through
`chartab --format json`, on the default catalog, on the benchmark's groups
and on relabelings that change the class order.  Packed one bit narrower,
the lift breaks tables the checks catch; the split digits of real class
matrices stay far below their bound, so its width is shown tight on the
worst-case sum the split makes.
"""

import json

import pytest

import dixon_oracle
from superchar import chartab, cli
from superchar.chartab import _combine, _split_width, dixon_character_table
from superchar.errors import ConsistencyError
from superchar.groups import build_group
from superchar.verifier import DEFAULT_CATALOG
from test_schur_oracle import relabeled

BENCHMARK_GROUPS = (
    "D32", "Q64", "C5xC5", "C2xC2xC2xC2", "S3xQ8", "D24",
    "Q32", "C17", "C4xC5", "D12", "C10", "D4xC2",
)


def chartab_json(table):
    """The bytes `chartab --format json` writes for table."""
    payload = table.to_json()
    payload["validation"] = table.validation.to_json()
    return json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"


def assert_same_table(spec, capsysbinary):
    packed, listed = dixon_character_table(build_group(spec)), dixon_oracle.dixon_character_table(build_group(spec))
    assert packed.values == listed.values
    assert packed.exponent == listed.exponent
    assert cli.main(["chartab", "--group", spec, "--format", "json"]) == 0
    assert capsysbinary.readouterr().out == chartab_json(listed)


@pytest.mark.parametrize("name", DEFAULT_CATALOG + BENCHMARK_GROUPS)
def test_packed_tables_match_the_list_oracle(name, capsysbinary):
    assert_same_table(name, capsysbinary)


@pytest.mark.parametrize("name", ["Q32", "S3xQ8", "C4xC5"])
@pytest.mark.parametrize("seed", [1, 2])
def test_packed_tables_match_the_list_oracle_on_relabelings(name, seed, tmp_path, capsysbinary):
    H = relabeled(build_group(name), seed)
    path = tmp_path / "group.txt"
    path.write_text(f"order {H.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in H.mul))
    assert_same_table(f"file:{path}", capsysbinary)


@pytest.mark.parametrize("name", ["D5", "C10", "D10"])
def test_a_lift_one_bit_narrower_is_caught(name, monkeypatch):
    width = chartab._lift_width
    dixon_character_table(build_group(name))
    monkeypatch.setattr(chartab, "_lift_width", lambda e, p: width(e, p) - 1)
    with pytest.raises(ConsistencyError, match="multiplicities do not sum"):
        dixon_character_table(build_group(name))


@pytest.mark.parametrize("r, p", [(7, 5), (19, 97), (25, 11), (4, 17)])
def test_the_split_width_is_attained(r, p):
    # M v with every entry p - 1 puts r (p - 1)^2 in every digit, the bound
    w = _split_width(r, p)
    col = sum(p - 1 << w * j for j in range(r))
    exact = [r * (p - 1) ** 2 % p] * r
    assert _combine([p - 1] * r, [col] * r, w, r, p) == exact
    narrow = sum(p - 1 << (w - 1) * j for j in range(r))
    assert _combine([p - 1] * r, [narrow] * r, w - 1, r, p) != exact
