"""The JSON that the packed sums and the lattice lookups feed is pinned:
`chartab` on the large tables, `enumerate` on the widest enumerations,
`verify --extremes-only` on the groups beyond the default corpus and
`analyze`, the one command that prints a verdict's witnesses, must
print exactly these bytes, as `tests/test_corpus_digest.py` pins the
corpus.  The text of `analyze`, which shows no verdict's conditions, is
pinned apart from its JSON."""

import hashlib

import pytest

from superchar.cli import main

OUTPUT_SHA256 = {
    ("chartab", "D32"): "c8b964b0455ce457f3af849401d0732ee607dd6c829b06a9933b7219adabf453",
    ("chartab", "Q64"): "1fa519402493d3f06cb57ffe9f01a003aeb39d43e8f64d4d05f1219dd979d469",
    ("chartab", "C5xC5"): "925503f7ba4701261180ea7fc481f671896239187fa0dc4e7dcef38edd89c4ff",
    ("enumerate", "D12"): "b96e0c5c15e2de3857531604b3a6167cd4d75cef6a86bbc0f8342c5ad373ca4d",
    ("enumerate", "C10"): "4493c1082e100a16e37b3d87503efc41b169ef6ef784b91e0ece67a2547ac1a4",
    ("enumerate", "D4xC2"): "d0b6a5d35b57d2dc4021aa8db868084194870b2990c673df7a235960a8d21775",
    ("verify --extremes-only", "C2xC2xC2xC2"): "b1702e2755ec474e68dc8ad551100cc00f46cf47d138f63ba11e218c5c1d869c",
    ("verify --extremes-only", "S3xQ8"): "29b6427e3af1bf382340bdbd0577e6ad98b15c83d8bcb7d1a8d4bf1ecb01558c",
    ("verify --extremes-only", "D24"): "8916b1f125a908aeb9dd7bb7350024f2e6a25bb378e03531da0ef29bda0eee70",
    ("verify --extremes-only", "Q32"): "39907090b7c77f2e899513d628db729f9e685702814fb0fb5bcd2f87dd0419f6",
    ("verify --extremes-only", "C17"): "80d5d375d2704de02626951454a024c23051460e2297e520c81833642f710036",
    ("verify --extremes-only", "C4xC5"): "86fe43d6f966b788e40ce6f700c164a03f2f7dbdf59b395040bc95fc3e73dae2",
    ("analyze --sct finest", "S3"): "0cdd358e1e77ce9432d7178e967010315a52297e64aecc45977effb84895be49",
    ("analyze --sct finest", "A4"): "eb733d544bcf4645ead33c0636692c3cc895c62f3ec37d8eab03ab0e9e793760",
    ("analyze --sct finest", "S4"): "1eaf3a38f8aff496eeaa649d371040f0f2ffb63f384587a9bce9d327dccfb1fa",
    ("analyze --sct coarsest", "D4"): "be68f6460ccb6a2885cc496cfb577788a88fe95b8a18d106f94d3859c9620c9d",
    ("analyze --sct coarsest", "Q8"): "be355382b061880143d588fc81cd876d03b133c69439bd5c4a8120d9337151ba",
}


@pytest.mark.parametrize("command, group", sorted(OUTPUT_SHA256))
def test_json_output_digest(command, group, capsys):
    assert main([*command.split(), "--group", group, "--format", "json"]) == 0
    data = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[command, group]


ANALYZE_TEXT_SHA256 = {
    ("finest", "S3"): "c90f426c045e584ae6fbff1a2f52c0b414ad7cb3e033161eeb1424dfc9900c0b",
    ("finest", "A4"): "cbc0bea87fc7724fc4dd76fcfc5f14f0410225f3a8542ac51afba83996038700",
    ("finest", "S4"): "d7fac57b6c113c5ca218e7b912cfaf471ff5663e3b4454c7345f9a7900f59aee",
    ("coarsest", "D4"): "ca10df343cbe0d6e9775f36eb8a017c19487bd91b0dd7867d5c76ba8a29a4e4f",
    ("coarsest", "Q8"): "205481f5511189ac77af2bdb7df70ef41e822bd3bc2ba199866e3b288f4dbfc7",
}


@pytest.mark.parametrize("sct, group", sorted(ANALYZE_TEXT_SHA256))
def test_analyze_text_digest(sct, group, capsys):
    assert main(["analyze", "--sct", sct, "--group", group]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == ANALYZE_TEXT_SHA256[sct, group]
