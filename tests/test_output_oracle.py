"""The streamed `chartab`, `enumerate` and `analyze` output against the
one-shot encodings it replaced: the same bytes on standard output (plus
one trailing newline where the text lacks one) and with `--out` (as is),
written one theory at a time."""

import gc
import io
import json
import random
import sys
import tracemalloc

import pytest

from superchar import cli
from superchar.chartab import DEFAULT_MAX_ORDER, character_table_of
from superchar.groups import build_group, catalog_group
from superchar.supertheory import enumerate_scts
from superchar.verifier import DEFAULT_CATALOG


def _dump(data) -> bytes:
    return json.dumps(data, indent=2, sort_keys=True).encode("ascii")


def enumerate_json(spec: str) -> bytes:
    G = build_group(spec, DEFAULT_MAX_ORDER)
    theories = enumerate_scts(character_table_of(G))
    return _dump({"group": G.label, "count": len(theories), "theories": [S.to_json() for S in theories]})


def enumerate_text(spec: str) -> bytes:
    G = build_group(spec, DEFAULT_MAX_ORDER)
    theories = enumerate_scts(character_table_of(G))
    lines = [f"{len(theories)} supercharacter theories of {G.label}", ""]
    for i, S in enumerate(theories):
        lines.append(f"theory index:{i}")
        lines.append(S.to_text())
    return "\n".join(lines).encode("utf-8")


def chartab_json(spec: str) -> bytes:
    table = character_table_of(build_group(spec, DEFAULT_MAX_ORDER))
    payload = table.to_json()
    payload["validation"] = table.validation.to_json()
    return _dump(payload)


def analyze_json(spec: str, selector: str) -> bytes:
    G = build_group(spec, DEFAULT_MAX_ORDER)
    return _dump(cli._analysis(G, cli._select_theory(character_table_of(G), selector)))


def assert_streams(argv, expected: bytes, capsysbinary, tmp_path):
    """argv prints expected on standard output, with a newline added only
    where it lacks one, and writes exactly expected to an --out file."""
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == (expected if expected.endswith(b"\n") else expected + b"\n")
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == expected


@pytest.mark.parametrize("spec", DEFAULT_CATALOG + ("C1", "C10", "D12", "D4xC2", "Q8xC2"))
def test_enumerate_streams_the_one_shot_bytes(spec, capsysbinary, tmp_path):
    argv = ["enumerate", "--group", spec]
    assert_streams([*argv, "--format", "json"], enumerate_json(spec), capsysbinary, tmp_path)
    assert_streams(argv, enumerate_text(spec), capsysbinary, tmp_path)


def test_a_relabeled_table_enumerates_the_one_shot_bytes(capsysbinary, tmp_path):
    # every element but the identity renamed by a seeded permutation
    mul = catalog_group("D4xC2").mul
    n = len(mul)
    rest = list(range(1, n))
    random.Random(28).shuffle(rest)
    perm = [0] + rest
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[mul[a][b]]
    path = tmp_path / "D4xC2"
    path.write_text(f"order {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in new))
    spec = f"file:{path}"
    argv = ["enumerate", "--group", spec]
    assert_streams([*argv, "--format", "json"], enumerate_json(spec), capsysbinary, tmp_path)
    assert_streams(argv, enumerate_text(spec), capsysbinary, tmp_path)


@pytest.mark.parametrize("spec", ["S3", "C5xC5"])
def test_chartab_streams_the_one_shot_bytes(spec, capsysbinary, tmp_path):
    argv = ["chartab", "--group", spec, "--format", "json"]
    assert_streams(argv, chartab_json(spec), capsysbinary, tmp_path)


@pytest.mark.parametrize("spec, selector", [("S4", "finest"), ("D4", "coarsest")])
def test_analyze_streams_the_one_shot_bytes(spec, selector, capsysbinary, tmp_path):
    argv = ["analyze", "--group", spec, "--sct", selector, "--format", "json"]
    assert_streams(argv, analyze_json(spec, selector), capsysbinary, tmp_path)


class _Recorder(io.BytesIO):
    """A binary stream that keeps the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


def test_enumerate_json_writes_one_theory_at_a_time(monkeypatch):
    # D4xC2: 215 theories in 257,743 bytes, the largest 2,592 with its separator
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(recorder, encoding="utf-8"))
    assert cli.main(["enumerate", "--group", "D4xC2", "--format", "json"]) == 0
    sys.stdout.flush()
    assert recorder.getvalue() == enumerate_json("D4xC2") + b"\n"
    assert len(recorder.sizes) == 215 + 3 and max(recorder.sizes) <= 4096, max(recorder.sizes)


def test_enumerate_json_holds_the_rings_and_one_theory_at_a_time(tmp_path):
    # the traced peak of the whole command, group and table included: 1.60 MB
    # when the search returned every derived theory and the table kept each
    # one to the end, 0.78 MB with the rings in bytes and each theory evicted
    # once written
    gc.collect()
    tracemalloc.start()
    try:
        assert cli.main(["enumerate", "--group", "D4xC2", "--format", "json", "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "o").stat().st_size == 257_743
    assert peak <= 1024 * 1024, peak
